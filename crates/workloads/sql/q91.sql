-- TPC-DS Q91 core (xD_Q91): catalog_returns joined to call_center,
-- date_dim and customer, with the customer's address and demographics
-- dimensions. All six joins are marked error-prone; the xD_Q91 ladder of
-- Fig. 9 keeps the first x of them. Their order mirrors the paper's 2D
-- example: the catalog side first, then the customer-address join, then
-- the deeper customer dimensions.
SELECT COUNT(*)
FROM catalog_returns cr, call_center cc, date_dim d, customer c,
     customer_address ca, customer_demographics cd, household_demographics hd
WHERE cr.cr_returned_date_sk = d.d_date_sk -- epp
  AND c.c_current_addr_sk = ca.ca_address_sk -- epp
  AND cr.cr_returning_customer_sk = c.c_customer_sk -- epp
  AND c.c_current_hdemo_sk = hd.hd_demo_sk -- epp
  AND c.c_current_cdemo_sk = cd.cd_demo_sk -- epp
  AND cr.cr_call_center_sk = cc.cc_call_center_sk -- epp
  AND d.d_year = 100
  AND ca.ca_gmt_offset <= 6;
