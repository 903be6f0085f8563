-- TPC-DS Q27 core (4D_Q27): store_sales star over customer_demographics,
-- date_dim, store and item; all four joins are error-prone.
SELECT COUNT(*)
FROM store_sales ss, customer_demographics cd, date_dim d, store s, item i
WHERE ss.ss_cdemo_sk = cd.cd_demo_sk -- epp
  AND ss.ss_sold_date_sk = d.d_date_sk -- epp
  AND ss.ss_store_sk = s.s_store_sk -- epp
  AND ss.ss_item_sk = i.i_item_sk -- epp
  AND s.s_state = 5;
