// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` neither builds nor slows on it; the
// module path keeps it inside proteus' internal-package tree.
module proteus/bench

go 1.22

require proteus v0.0.0

replace proteus => ../
