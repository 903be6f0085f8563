-- TPC-DS Q19 core (5D_Q19): store_sales with date, item, customer
-- (chained to its address) and store; all five joins are error-prone.
SELECT COUNT(*)
FROM store_sales ss, date_dim d, item i, customer c, customer_address ca, store s
WHERE ss.ss_sold_date_sk = d.d_date_sk -- epp
  AND ss.ss_item_sk = i.i_item_sk -- epp
  AND ss.ss_customer_sk = c.c_customer_sk -- epp
  AND c.c_current_addr_sk = ca.ca_address_sk -- epp
  AND ss.ss_store_sk = s.s_store_sk -- epp
  AND i.i_manufact_id = 7
  AND d.d_moy = 11;
