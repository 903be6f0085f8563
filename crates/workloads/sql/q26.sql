-- TPC-DS Q26 core (4D_Q26): catalog_sales star over
-- customer_demographics, date_dim, item and promotion; all four joins are
-- error-prone.
SELECT COUNT(*)
FROM catalog_sales cs, customer_demographics cd, date_dim d, item i, promotion p
WHERE cs.cs_bill_cdemo_sk = cd.cd_demo_sk -- epp
  AND cs.cs_sold_date_sk = d.d_date_sk -- epp
  AND cs.cs_item_sk = i.i_item_sk -- epp
  AND cs.cs_promo_sk = p.p_promo_sk -- epp
  AND cd.cd_marital_status = 2;
