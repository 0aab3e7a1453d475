// The benchmark is a module of its own so that the root module's
// `go build ./...` and `go test ./...` never see it; the replace directive
// lets it import the program's packages, internal ones included, read-only.
module github.com/multiflow-repro/trace/bench

go 1.22

require github.com/multiflow-repro/trace v0.0.0

replace github.com/multiflow-repro/trace => ../
