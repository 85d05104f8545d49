module hquorum/benchmark

go 1.22

require hquorum v0.0.0

replace hquorum => ../
