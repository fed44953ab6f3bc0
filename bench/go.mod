module dledger/bench

go 1.24

require dledger v0.0.0

replace dledger => ../
