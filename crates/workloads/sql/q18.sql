-- TPC-DS Q18 core (6D_Q18): catalog_sales with bill-customer
-- demographics, the customer's own demographics, address, date and item;
-- all six joins are error-prone, and customer_demographics appears twice.
SELECT COUNT(*)
FROM catalog_sales cs, customer_demographics cd1, customer c,
     customer_demographics cd2, customer_address ca, date_dim d, item i
WHERE cs.cs_bill_cdemo_sk = cd1.cd_demo_sk -- epp
  AND cs.cs_bill_customer_sk = c.c_customer_sk -- epp
  AND c.c_current_cdemo_sk = cd2.cd_demo_sk -- epp
  AND c.c_current_addr_sk = ca.ca_address_sk -- epp
  AND cs.cs_sold_date_sk = d.d_date_sk -- epp
  AND cs.cs_item_sk = i.i_item_sk -- epp
  AND cd1.cd_education_status = 3
  AND d.d_year = 100;
