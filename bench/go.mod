module github.com/distributed-predicates/gpd/bench

go 1.22

require github.com/distributed-predicates/gpd v0.0.0

replace github.com/distributed-predicates/gpd => ../
