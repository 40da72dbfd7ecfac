module caladrius/benchmark

go 1.22

require caladrius v0.0.0

replace caladrius => ../
