-- The paper's introductory example EQ (Fig. 1). The two join predicates
-- are error-prone (ESS dimensions 0 and 1); the price filter, written
-- `p_retailprice < 1000` in the paper, is assumed reliably estimated.
-- This is the configuration whose 2D ESS, iso-cost contours and
-- bouquet/SpillBound execution sequences Fig. 2 walks through.
SELECT *
FROM part, lineitem, orders
WHERE part.p_partkey = lineitem.l_partkey -- epp
  AND orders.o_orderkey = lineitem.l_orderkey -- epp
  AND part.p_retailprice <= 999;
