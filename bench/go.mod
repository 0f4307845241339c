module crackdb/bench

go 1.22

require crackdb v0.0.0

replace crackdb => ../
