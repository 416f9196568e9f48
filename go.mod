module hbb

go 1.23
