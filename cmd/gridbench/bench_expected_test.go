package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchDir is the benchmark's directory, read only here.
const benchDir = "../../bench"

// benchInvocations reads the gridbench command lines the benchmark
// runs from its source, bench/simcli.go: every invocation literal's
// name (the stem of its expected-output file) and args. Reading the
// source keeps the benchmark's list the only one.
func benchInvocations(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(benchDir, "simcli.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	invs := map[string][]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		var name string
		var args []string
		for i, el := range lit.Elts {
			key := ""
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				key, el = fmt.Sprint(kv.Key), kv.Value
			}
			switch v := el.(type) {
			case *ast.BasicLit:
				if key == "name" || key == "" && i == 0 {
					name, _ = strconv.Unquote(v.Value)
				}
			case *ast.CompositeLit:
				if at, ok := v.Type.(*ast.ArrayType); ok && fmt.Sprint(at.Elt) == "string" {
					for _, a := range v.Elts {
						s, _ := strconv.Unquote(a.(*ast.BasicLit).Value)
						args = append(args, s)
					}
				}
			}
		}
		if name != "" && args != nil {
			invs[name] = args
		}
		return true
	})
	return invs
}

// TestBenchExpectedOutputs runs, for each of the benchmark's expected
// outputs (bench/testdata/expected), the invocation that produces it,
// in process and as the benchmark does (-parallel 1 -seed 1), and
// compares its output less the wall-clock lines byte for byte. The
// benchmark's figures run at scales no golden covers (Figures 2, 3, 6
// and 7 at scale 1, the scale sweep at 0.1), so a drift there shows
// here and not only as the benchmark's output check.
func TestBenchExpectedOutputs(t *testing.T) {
	invs := benchInvocations(t)
	files, err := filepath.Glob(filepath.Join(benchDir, "testdata", "expected", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no expected outputs: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".txt")
		t.Run(name, func(t *testing.T) {
			args, ok := invs[name]
			if !ok {
				t.Fatalf("bench/simcli.go declares no invocation named %q", name)
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			code, out, errOut := cli(t, append([]string{"-parallel", "1", "-seed", "1"}, args...)...)
			if code != 0 {
				t.Fatalf("gridbench %s: code=%d stderr=%q", strings.Join(args, " "), code, errOut)
			}
			if got := stripTiming(out); got != string(want) {
				t.Errorf("gridbench %s drifted from %s:\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), file, got, want)
			}
		})
	}
}
