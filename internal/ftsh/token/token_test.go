package token

import "testing"

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
