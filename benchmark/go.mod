module abyss1000/benchmark

go 1.24

require abyss1000 v0.0.0

replace abyss1000 => ../
