module copmecs/benchmark

go 1.22

require copmecs v0.0.0

replace copmecs => ../
