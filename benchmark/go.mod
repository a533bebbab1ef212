module dhpf/benchmark

go 1.24

require dhpf v0.0.0

replace dhpf => ../
