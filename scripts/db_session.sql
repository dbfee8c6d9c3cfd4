.demo
.trace on
SELECT SUM(salary) FROM person WHERE age > 30
SELECT dept, SUM(salary) FROM person GROUP BY dept
EXPLAIN ANALYZE SELECT SUM(salary), COUNT(*) FROM person WHERE dept = 1
EXPLAIN ANALYZE UPDATE person SET salary = 2000 WHERE id = 3
SELECT salary FROM person WHERE id = 3
.counts
