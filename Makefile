# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench launch serve experiments examples clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./internal/...

bench:
	go test -bench=. -benchmem ./...

# Multi-process smoke run: 4 OS processes over loopback UDP.
launch:
	go run ./cmd/lci-launch -n 4 -apps bfs,pagerank -graph web -scale 10

# Long-lived serving job: 4 resident ranks, clients on a TCP endpoint,
# live metrics on 9380+r. Ctrl-C drains gracefully.
serve:
	go run ./cmd/lci-serve -n 4 -graph web -scale 12 -metrics-addr 127.0.0.1:9380

# Regenerates every table and figure of the paper plus the extensions.
experiments:
	go run ./cmd/experiments -all -ablations -portability -alltoall -thread-scaling

examples:
	go run ./examples/quickstart
	go run ./examples/layers
	go run ./examples/exhaustion
	go run ./examples/bfs-gemini
	go run ./examples/pagerank
	go run ./examples/delta-stepping

clean:
	go clean ./...
