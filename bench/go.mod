module typhoon/bench

go 1.22

require typhoon v0.0.0

replace typhoon => ../
