module rld/bench

go 1.23

require rld v0.0.0

replace rld => ../
