module coormv2/bench

go 1.24

require coormv2 v0.0.0

replace coormv2 => ../
