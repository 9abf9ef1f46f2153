package token

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		EOF: "end of file", NEWLINE: "newline", WORD: "word",
		GT: ">", GTGT: ">>", LT: "<", GTAMP: ">&",
		DASHGT: "->", DASHGTGT: "->>", DASHLT: "-<", DASHGTAMP: "->&",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestPosString(t *testing.T) {
	p := Pos{Line: 3, Col: 7}
	if p.String() != "3:7" {
		t.Fatalf("Pos = %q", p.String())
	}
}

func TestPosCompare(t *testing.T) {
	ordered := []Pos{{1, 1}, {2, 1}, {2, 10}, {10, 1}, {10, 2}}
	for i, p := range ordered {
		for j, q := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := p.Compare(q); got != want {
				t.Errorf("%v.Compare(%v) = %d, want %d", p, q, got, want)
			}
		}
	}
}

func TestIsBare(t *testing.T) {
	bare := Token{Kind: WORD, Segs: []Segment{{Kind: SegLit, Text: "try"}}}
	if !bare.IsBare("try") || bare.IsBare("end") {
		t.Fatal("bare word misclassified")
	}
	quoted := Token{Kind: WORD, Quoted: true, Segs: []Segment{{Kind: SegLit, Text: "try"}}}
	if quoted.IsBare("try") {
		t.Fatal("quoted word must never be a keyword")
	}
	varWord := Token{Kind: WORD, Segs: []Segment{{Kind: SegVar, Text: "try"}}}
	if varWord.IsBare("try") {
		t.Fatal("variable reference must never be a keyword")
	}
	multi := Token{Kind: WORD, Segs: []Segment{{Kind: SegLit, Text: "tr"}, {Kind: SegLit, Text: "y"}}}
	if multi.IsBare("try") {
		t.Fatal("multi-segment word must not be a keyword")
	}
}

func TestKeywordTable(t *testing.T) {
	for _, kw := range []string{"try", "catch", "end", "forany", "forall",
		"for", "while", "in", "if", "elif", "else", "function", "failure", "success"} {
		if !Keywords[kw] {
			t.Errorf("missing keyword %q", kw)
		}
	}
	if Keywords["echo"] {
		t.Error("echo must not be a keyword")
	}
}

func TestCompareOpsTable(t *testing.T) {
	for _, op := range []string{".lt.", ".gt.", ".le.", ".ge.", ".eq.", ".ne.", ".eql.", ".neql."} {
		if !CompareOps[op] {
			t.Errorf("missing operator %q", op)
		}
	}
	if CompareOps[".weird."] {
		t.Error(".weird. accepted")
	}
}

func TestIntern(t *testing.T) {
	a, b := Intern("intern_test_a"), Intern("intern_test_b")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("Intern gave %d and %d", a, b)
	}
	if again := Intern(strings.Clone("intern_test_a")); again != a {
		t.Errorf("re-interning an equal string gave %d, want %d", again, a)
	}
	if s, ok := Lookup("intern_test_b"); !ok || s != b {
		t.Errorf("Lookup = %d, %v; want %d, true", s, ok, b)
	}
	n := Interned()
	if s, ok := Lookup("intern_test_never"); ok || s != 0 {
		t.Errorf("Lookup of a name never interned = %d, %v", s, ok)
	}
	if Interned() != n {
		t.Error("Lookup interned a name")
	}
}

// TestInternConcurrent interns overlapping names from several
// goroutines: under -race this must be silent, and every goroutine must
// get the same Sym for the same name.
func TestInternConcurrent(t *testing.T) {
	const workers, names = 4, 200
	got := make([][]Sym, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				got[w] = append(got[w], Intern(fmt.Sprintf("concurrent_%d", i)))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("goroutine %d interned differently from goroutine 0", w)
		}
	}
}
