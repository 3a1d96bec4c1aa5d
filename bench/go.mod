module lonviz/bench

go 1.22

require lonviz v0.0.0

replace lonviz => ../
