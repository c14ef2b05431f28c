module gpudpf/bench

go 1.22

require gpudpf v0.0.0

replace gpudpf => ../
