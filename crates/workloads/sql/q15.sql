-- TPC-DS Q15 core (3D_Q15): catalog_sales chained through customer to
-- customer_address, plus date_dim; all three joins are error-prone.
SELECT COUNT(*)
FROM catalog_sales cs, customer c, customer_address ca, date_dim d
WHERE cs.cs_bill_customer_sk = c.c_customer_sk -- epp
  AND c.c_current_addr_sk = ca.ca_address_sk -- epp
  AND cs.cs_sold_date_sk = d.d_date_sk -- epp
  AND d.d_qoy = 1;
