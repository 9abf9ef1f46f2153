package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// buildDir holds everything this program writes: the two binaries
// under test, span files and gridbench side outputs. It sits inside
// the checkout and is named in .gitignore.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the directory that
// holds go.mod: the checkout root under `go run ./bench`, the parent
// of the package directory under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// prepare builds cmd/gridd and cmd/gridbench from the checkout's
// source. The go build cache makes every build after the first a
// sub-second check; the time is reported as loadgen.build_s and is
// part of no other metric.
func prepare(seed int64, seconds float64) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(root, buildDir)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		ctx:     context.Background(),
		root:    root,
		tmp:     tmp,
		gridd:   filepath.Join(tmp, "gridd"),
		bench:   filepath.Join(tmp, "gridbench"),
		seed:    seed,
		seconds: seconds,
	}
	t0 := time.Now()
	for bin, pkg := range map[string]string{e.gridd: "./cmd/gridd", e.bench: "./cmd/gridbench"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	e.buildS = time.Since(t0).Seconds()
	return e, nil
}
