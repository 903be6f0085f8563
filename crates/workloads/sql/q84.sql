-- TPC-DS Q84 core (5D_Q84): customer chained to its address,
-- demographics, household demographics (on to income_band) and
-- store_returns; all five joins are error-prone.
SELECT COUNT(*)
FROM customer c, customer_address ca, customer_demographics cd,
     household_demographics hd, income_band ib, store_returns sr
WHERE c.c_current_addr_sk = ca.ca_address_sk -- epp
  AND c.c_current_cdemo_sk = cd.cd_demo_sk -- epp
  AND c.c_current_hdemo_sk = hd.hd_demo_sk -- epp
  AND hd.hd_income_band_sk = ib.ib_income_band_sk -- epp
  AND sr.sr_customer_sk = c.c_customer_sk -- epp
  AND ca.ca_city = 19;
