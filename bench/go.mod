// The benchmark is a module of its own because the benchmark contract asks
// for a package with its own build file that leaves the repo's build and
// tier-1 suite as they were: the root's `go build ./...`, `go test ./...`
// and `go vet ./...` skip this directory, so run them here as well. It
// reaches the simulator's internal packages through the import-path rule
// (radixvm/bench is inside radixvm/).
module radixvm/bench

go 1.23

require radixvm v0.0.0

replace radixvm => ../
