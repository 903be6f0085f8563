-- TPC-DS Q7 core (4D_Q7): store_sales star over customer_demographics,
-- date_dim, item and promotion; all four joins are error-prone.
SELECT COUNT(*)
FROM store_sales ss, customer_demographics cd, date_dim d, item i, promotion p
WHERE ss.ss_cdemo_sk = cd.cd_demo_sk -- epp
  AND ss.ss_sold_date_sk = d.d_date_sk -- epp
  AND ss.ss_item_sk = i.i_item_sk -- epp
  AND ss.ss_promo_sk = p.p_promo_sk -- epp
  AND cd.cd_gender = 1
  AND d.d_year = 100;
