package genconsensus

import (
	"os/exec"
	"testing"
)

// TestBenchHarnessCompiles keeps the repo benchmark buildable. bench/ is a
// module of its own compiled against genconsensus/internal/..., so the root
// `go build ./... && go test ./...` never sees it: without this gate an
// internal signature change breaks the benchmark silently and is found only
// when the benchmark is next run. `make bench-harness` also runs its tests.
func TestBenchHarnessCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
