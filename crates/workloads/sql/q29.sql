-- TPC-DS Q29 core (5D_Q29): a store_sales / store_returns / catalog_sales
-- branch with date, item and store; all five joins are error-prone.
SELECT COUNT(*)
FROM store_sales ss, store_returns sr, catalog_sales cs, date_dim d, item i, store s
WHERE ss.ss_ticket_number = sr.sr_ticket_number -- epp
  AND sr.sr_customer_sk = cs.cs_bill_customer_sk -- epp
  AND ss.ss_sold_date_sk = d.d_date_sk -- epp
  AND ss.ss_item_sk = i.i_item_sk -- epp
  AND ss.ss_store_sk = s.s_store_sk -- epp
  AND i.i_current_price <= 49;
