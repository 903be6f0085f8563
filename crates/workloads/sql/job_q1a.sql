-- Join Order Benchmark Q1a core (JOB_Q1a): company_type ⋈
-- movie_companies ⋈ title ⋈ movie_info_idx ⋈ info_type. The implicit
-- (cyclic) predicates are dropped so selectivity independence holds, and
-- the two fact-to-title joins are error-prone.
SELECT COUNT(*)
FROM company_type ct, movie_companies mc, title t, movie_info_idx mii, info_type it
WHERE mc.mc_movie_id = t.t_id -- epp
  AND mii.mii_movie_id = t.t_id -- epp
  AND mc.mc_company_type_id = ct.ct_id
  AND mii.mii_info_type_id = it.it_id
  AND ct.ct_kind = 1
  AND it.it_info = 50
  AND t.t_production_year <= 110;
