module rodsp/benchmark

go 1.22

require rodsp v0.0.0

replace rodsp => ../
