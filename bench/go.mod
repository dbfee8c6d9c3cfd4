module rcnvm/bench

go 1.22

require rcnvm v0.0.0

replace rcnvm => ../
