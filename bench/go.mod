module tcfpram/bench

go 1.22

require tcfpram v0.0.0

replace tcfpram => ../
