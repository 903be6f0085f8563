-- TPC-DS Q96 core (3D_Q96): store_sales star over
-- household_demographics, time_dim and store; all three joins are
-- error-prone.
SELECT COUNT(*)
FROM store_sales ss, household_demographics hd, time_dim t, store s
WHERE ss.ss_hdemo_sk = hd.hd_demo_sk -- epp
  AND ss.ss_sold_time_sk = t.t_time_sk -- epp
  AND ss.ss_store_sk = s.s_store_sk -- epp
  AND hd.hd_dep_count = 5
  AND t.t_hour = 8;
