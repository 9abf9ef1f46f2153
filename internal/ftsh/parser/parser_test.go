package parser

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/token"
)

func parse(t *testing.T, src string) *ast.Script {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestSimpleGroup(t *testing.T) {
	s := parse(t, "wget http://server/file.tar.gz\ngunzip file.tar.gz\ntar xvf file.tar\n")
	if len(s.Body.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(s.Body.Stmts))
	}
	cmd := s.Body.Stmts[0].(*ast.CommandStmt)
	if lit, _ := cmd.Words[0].Lit(); lit != "wget" {
		t.Fatalf("first word = %q", lit)
	}
}

func TestTryForDuration(t *testing.T) {
	s := parse(t, "try for 30 minutes\n  wget http://server/f\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Time != 30*time.Minute || try.Limit.HasAttempts {
		t.Fatalf("limit = %+v", try.Limit)
	}
	if len(try.Body.Stmts) != 1 || try.Catch != nil {
		t.Fatalf("try = %+v", try)
	}
}

func TestTryTimes(t *testing.T) {
	s := parse(t, "try 5 times\n  x\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Attempts != 5 || try.Limit.HasTime {
		t.Fatalf("limit = %+v", try.Limit)
	}
}

func TestTryForOrTimes(t *testing.T) {
	s := parse(t, "try for 1 hour or 3 times\n  x\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Time != time.Hour || try.Limit.Attempts != 3 {
		t.Fatalf("limit = %+v", try.Limit)
	}
}

func TestTryTimesOrFor(t *testing.T) {
	s := parse(t, "try 3 times or for 1 minute\n  x\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Time != time.Minute || try.Limit.Attempts != 3 {
		t.Fatalf("limit = %+v", try.Limit)
	}
}

func TestTryCatch(t *testing.T) {
	src := `try 5 times
  wget http://server/file.tar.gz
catch
  rm -f file.tar.gz
  failure
end
`
	s := parse(t, src)
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Catch == nil || len(try.Catch.Stmts) != 2 {
		t.Fatalf("catch = %+v", try.Catch)
	}
	if _, ok := try.Catch.Stmts[1].(*ast.FailureStmt); !ok {
		t.Fatalf("catch[1] = %T", try.Catch.Stmts[1])
	}
}

func TestNestedTryMatchesPaperExample(t *testing.T) {
	src := `try for 30 minutes
  try for 5 minutes
    wget http://server/file.tar.gz
  end
  try for 1 minute or 3 times
    gunzip file.tar.gz
    tar xvf file.tar
  end
end
`
	s := parse(t, src)
	outer := s.Body.Stmts[0].(*ast.TryStmt)
	if outer.Limit.Time != 30*time.Minute {
		t.Fatalf("outer = %+v", outer.Limit)
	}
	if len(outer.Body.Stmts) != 2 {
		t.Fatalf("outer body = %d stmts", len(outer.Body.Stmts))
	}
	inner2 := outer.Body.Stmts[1].(*ast.TryStmt)
	if inner2.Limit.Time != time.Minute || inner2.Limit.Attempts != 3 {
		t.Fatalf("inner2 = %+v", inner2.Limit)
	}
}

func TestForany(t *testing.T) {
	src := `forany server in xxx yyy zzz
  wget http://${server}/file.tar.gz
end
echo "got file from ${server}"
`
	s := parse(t, src)
	fa := s.Body.Stmts[0].(*ast.ForanyStmt)
	if fa.Var != "server" || len(fa.List) != 3 {
		t.Fatalf("forany = %+v", fa)
	}
}

func TestForall(t *testing.T) {
	s := parse(t, "forall file in xxx yyy zzz\n  wget http://${server}/${file}\nend\n")
	fa := s.Body.Stmts[0].(*ast.ForallStmt)
	if fa.Var != "file" || len(fa.List) != 3 {
		t.Fatalf("forall = %+v", fa)
	}
}

func TestPaperEthernetSubmitter(t *testing.T) {
	src := `try for 5 minutes
  cut -f2 /proc/sys/fs/file-nr -> n
  if ${n} .lt. 1000
    failure
  else
    condor_submit submit.job
  end
end
`
	s := parse(t, src)
	try := s.Body.Stmts[0].(*ast.TryStmt)
	cmd := try.Body.Stmts[0].(*ast.CommandStmt)
	if len(cmd.Redirs) != 1 || cmd.Redirs[0].Op != token.DASHGT {
		t.Fatalf("redir = %+v", cmd.Redirs)
	}
	ifst := try.Body.Stmts[1].(*ast.IfStmt)
	if ifst.Cond.Op != ".lt." {
		t.Fatalf("op = %q", ifst.Cond.Op)
	}
	if ifst.Else == nil {
		t.Fatal("missing else")
	}
}

func TestIfElifElse(t *testing.T) {
	src := `if ${x} .eq. 1
  a
elif ${x} .eq. 2
  b
elif ${x} .eq. 3
  c
else
  d
end
`
	s := parse(t, src)
	ifst := s.Body.Stmts[0].(*ast.IfStmt)
	if len(ifst.Elifs) != 2 || ifst.Else == nil {
		t.Fatalf("if = %+v", ifst)
	}
}

func TestWhileTrue(t *testing.T) {
	s := parse(t, "while true\n  produce\nend\n")
	w := s.Body.Stmts[0].(*ast.WhileStmt)
	if !w.Cond.IsLit || !w.Cond.Lit {
		t.Fatalf("cond = %+v", w.Cond)
	}
}

func TestWhileComparison(t *testing.T) {
	s := parse(t, "while ${n} .lt. 10\n  step\nend\n")
	w := s.Body.Stmts[0].(*ast.WhileStmt)
	if w.Cond.Op != ".lt." {
		t.Fatalf("cond = %+v", w.Cond)
	}
}

func TestAssignment(t *testing.T) {
	s := parse(t, "count=0\nurl=http://${server}/x\nempty=\n")
	a0 := s.Body.Stmts[0].(*ast.AssignStmt)
	if a0.Name != "count" {
		t.Fatalf("a0 = %+v", a0)
	}
	if lit, ok := a0.Values[0].Lit(); !ok || lit != "0" {
		t.Fatalf("a0 value = %+v", a0.Values)
	}
	a1 := s.Body.Stmts[1].(*ast.AssignStmt)
	if a1.Name != "url" || len(a1.Values) != 1 || len(a1.Values[0].Segs) != 3 {
		t.Fatalf("a1 = %+v values=%v", a1, a1.Values)
	}
	a2 := s.Body.Stmts[2].(*ast.AssignStmt)
	if a2.Name != "empty" || len(a2.Values) != 0 {
		t.Fatalf("a2 = %+v", a2)
	}
}

func TestEqualsInArgumentIsNotAssignment(t *testing.T) {
	s := parse(t, "submit queue=long job\n")
	cmd, ok := s.Body.Stmts[0].(*ast.CommandStmt)
	if !ok {
		t.Fatalf("stmt = %T", s.Body.Stmts[0])
	}
	if len(cmd.Words) != 3 {
		t.Fatalf("words = %d", len(cmd.Words))
	}
}

func TestFunction(t *testing.T) {
	src := `function fetch
  wget http://${1}/data
end
fetch xxx
`
	s := parse(t, src)
	fn := s.Body.Stmts[0].(*ast.FunctionStmt)
	if fn.Name != "fetch" || len(fn.Body.Stmts) != 1 {
		t.Fatalf("fn = %+v", fn)
	}
	if _, ok := s.Body.Stmts[1].(*ast.CommandStmt); !ok {
		t.Fatalf("call = %T", s.Body.Stmts[1])
	}
}

func TestRedirectionsToVariables(t *testing.T) {
	s := parse(t, "run-simulation ->& tmp\ncat -< tmp\n")
	c0 := s.Body.Stmts[0].(*ast.CommandStmt)
	if c0.Redirs[0].Op != token.DASHGTAMP {
		t.Fatalf("op = %v", c0.Redirs[0].Op)
	}
	c1 := s.Body.Stmts[1].(*ast.CommandStmt)
	if c1.Redirs[0].Op != token.DASHLT {
		t.Fatalf("op = %v", c1.Redirs[0].Op)
	}
}

func TestFileRedirections(t *testing.T) {
	s := parse(t, "run >& tmp\ncat < tmp > out\nlog >> all.log\n")
	ops := []token.Kind{
		s.Body.Stmts[0].(*ast.CommandStmt).Redirs[0].Op,
		s.Body.Stmts[1].(*ast.CommandStmt).Redirs[0].Op,
		s.Body.Stmts[1].(*ast.CommandStmt).Redirs[1].Op,
		s.Body.Stmts[2].(*ast.CommandStmt).Redirs[0].Op,
	}
	want := []token.Kind{token.GTAMP, token.LT, token.GT, token.GTGT}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestKeywordAsArgumentIsAllowed(t *testing.T) {
	s := parse(t, "echo try end in\n")
	cmd := s.Body.Stmts[0].(*ast.CommandStmt)
	if len(cmd.Words) != 4 {
		t.Fatalf("words = %d", len(cmd.Words))
	}
}

func TestQuotedKeywordIsCommand(t *testing.T) {
	s := parse(t, "\"try\" arg\n")
	if _, ok := s.Body.Stmts[0].(*ast.CommandStmt); !ok {
		t.Fatalf("stmt = %T", s.Body.Stmts[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"try for 30 bogons\n x\nend\n",            // unknown unit
		"try for 30\n x\nend\n",                   // missing unit
		"try\n x\nend\n",                          // missing limit
		"try for 1 hour\n x\n",                    // missing end
		"forany in a b\n x\nend\n",                // missing variable
		"forany s a b\n x\nend\n",                 // missing 'in'
		"forany s in\n x\nend\n",                  // empty list
		"if ${x} .weird. 3\n a\nend\n",            // bad operator
		"if ${x} .lt.\n a\nend\n",                 // missing rhs
		"end\n",                                   // stray end
		"catch\n",                                 // stray catch
		"function end\n x\nend\n",                 // keyword name
		"try -1 times\n x\nend\n",                 // nonpositive attempts
		"try for 0 seconds\n x\nend\n",            // nonpositive time
		"try for 1 hour or for 2 hours\nx\nend\n", // duplicate clause
		"cmd >\n",                                 // missing redir target
		"while true\n x\n",                        // unterminated while
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSemicolonSeparatedStatements(t *testing.T) {
	s := parse(t, "a; b; c\n")
	if len(s.Body.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(s.Body.Stmts))
	}
}

func TestBlankLinesAndComments(t *testing.T) {
	src := `
# header comment

echo one

# middle
echo two
`
	s := parse(t, src)
	if len(s.Body.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(s.Body.Stmts))
	}
}

func TestFractionalDuration(t *testing.T) {
	s := parse(t, "try for 0.5 seconds\n x\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Time != 500*time.Millisecond {
		t.Fatalf("limit = %v", try.Limit.Time)
	}
}

func TestDeeplyNestedBlocks(t *testing.T) {
	var b strings.Builder
	depth := 30
	for i := 0; i < depth; i++ {
		b.WriteString("try 1 times\n")
	}
	b.WriteString("work\n")
	for i := 0; i < depth; i++ {
		b.WriteString("end\n")
	}
	s := parse(t, b.String())
	cur := s.Body
	for i := 0; i < depth; i++ {
		try := cur.Stmts[0].(*ast.TryStmt)
		cur = try.Body
	}
	if _, ok := cur.Stmts[0].(*ast.CommandStmt); !ok {
		t.Fatal("innermost statement missing")
	}
}

// Property: the parser is total — it returns a tree or an error, never
// panics, on arbitrary near-printable input.
func TestQuickParserTotal(t *testing.T) {
	words := []string{"try", "end", "forany", "in", "if", "else", "echo",
		"${x}", "5", "times", "for", "minutes", ">", "->", "\n", ";", "\"q\"", "a=b"}
	f := func(idxs []uint8) bool {
		var b strings.Builder
		for _, ix := range idxs {
			b.WriteString(words[int(ix)%len(words)])
			b.WriteByte(' ')
		}
		_, err := Parse(b.String())
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExistsCondParse(t *testing.T) {
	s := parse(t, "if .exists. ${dir}/flag\n  ok\nend\nwhile .exists. lock\n  sleep 1\nend\n")
	ifst := s.Body.Stmts[0].(*ast.IfStmt)
	if ifst.Cond.Op != ".exists." || ifst.Cond.Left != nil || ifst.Cond.Right == nil {
		t.Fatalf("cond = %+v", ifst.Cond)
	}
	w := s.Body.Stmts[1].(*ast.WhileStmt)
	if w.Cond.Op != ".exists." {
		t.Fatalf("while cond = %+v", w.Cond)
	}
}

func TestTryEveryClause(t *testing.T) {
	s := parse(t, "try for 1 hour every 5 minutes\n  x\nend\n")
	try := s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Time != time.Hour || try.Limit.Every != 5*time.Minute {
		t.Fatalf("limit = %+v", try.Limit)
	}
	s = parse(t, "try 10 times every 30 seconds\n  x\nend\n")
	try = s.Body.Stmts[0].(*ast.TryStmt)
	if try.Limit.Attempts != 10 || try.Limit.Every != 30*time.Second {
		t.Fatalf("limit = %+v", try.Limit)
	}
	if _, err := Parse("try for 1 hour every 0 seconds\n x\nend\n"); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Parse("try for 1 hour every\n x\nend\n"); err == nil {
		t.Error("missing interval accepted")
	}
}

// TestWordsAreResolved checks what Parse stores on every word: its
// shape, a literal's text, and for each variable segment what the name
// refers to — the classification interp's TestVariableReferenceSemantics
// pins from the outside.
func TestWordsAreResolved(t *testing.T) {
	type ref struct {
		kind  token.VarKind
		index int
	}
	cases := []struct {
		src  string
		kind ast.WordKind
		text string // of a WordLit
		refs []ref  // of the variable segments, in order
	}{
		{`plain`, ast.WordLit, "plain", nil},
		{`a"b c"'d'`, ast.WordLit, "ab cd", nil},
		{`""`, ast.WordLit, "", nil},
		{`$1`, ast.WordVar, "", []ref{{token.VarPos, 1}}},
		{`${1}`, ast.WordVar, "", []ref{{token.VarPos, 1}}},
		{`"${3}"`, ast.WordVar, "", []ref{{token.VarPos, 3}}},
		{`${+2}`, ast.WordVar, "", []ref{{token.VarPos, 2}}},
		{`${007}`, ast.WordVar, "", []ref{{token.VarPos, 7}}},
		{`${-1}`, ast.WordVar, "", []ref{{token.VarBadPos, 0}}},
		{`${0}`, ast.WordVar, "", []ref{{token.VarBadPos, 0}}},
		{`${00}`, ast.WordVar, "", []ref{{token.VarBadPos, 0}}},
		{`${99999999999999999999}`, ast.WordVar, "", []ref{{token.VarNamed, 0}}},
		{`${1x}`, ast.WordVar, "", []ref{{token.VarNamed, 0}}},
		{`${ 1}`, ast.WordVar, "", []ref{{token.VarNamed, 0}}},
		{`${x}`, ast.WordVar, "", []ref{{token.VarNamed, 0}}},
		{`$*`, ast.WordVar, "", []ref{{token.VarArgs, 0}}},
		{`${*}`, ast.WordVar, "", []ref{{token.VarArgs, 0}}},
		{`$#`, ast.WordVar, "", []ref{{token.VarCount, 0}}},
		{`a${x}b`, ast.WordMixed, "", []ref{{token.VarNamed, 0}}},
		{`"${x} "`, ast.WordMixed, "", []ref{{token.VarNamed, 0}}},
		{`$1$#${0}`, ast.WordMixed, "", []ref{{token.VarPos, 1}, {token.VarCount, 0}, {token.VarBadPos, 0}}},
	}
	check := func(where string, w *ast.Word, i int) {
		c := cases[i]
		var refs []ref
		for _, seg := range w.Segs {
			if seg.Kind == token.SegVar {
				refs = append(refs, ref{seg.Var, seg.Index})
			}
		}
		if w.Kind != c.kind || w.Text != c.text || len(refs) != len(c.refs) {
			t.Errorf("%s %s: kind %d text %q refs %v, want kind %d text %q refs %v", where, c.src, w.Kind, w.Text, refs, c.kind, c.text, c.refs)
			return
		}
		for j := range refs {
			if refs[j] != c.refs[j] {
				t.Errorf("%s %s: refs %v, want %v", where, c.src, refs, c.refs)
			}
		}
	}
	for i, c := range cases {
		// Every place a word can stand: argv, redirection target,
		// assignment value (first and later), loop list, condition.
		s := parse(t, "cmd "+c.src+" > "+c.src+"\nv="+c.src+" "+c.src+"\nfor i in "+c.src+"\nend\nif "+c.src+" .eql. "+c.src+"\nend\n")
		cmd := s.Body.Stmts[0].(*ast.CommandStmt)
		check("argv", cmd.Words[1], i)
		check("redirection", cmd.Redirs[0].Target, i)
		// `v=""` has no first value: the word is all prefix.
		for _, w := range s.Body.Stmts[1].(*ast.AssignStmt).Values {
			check("assignment", w, i)
		}
		check("loop list", s.Body.Stmts[2].(*ast.ForStmt).List[0], i)
		cond := s.Body.Stmts[3].(*ast.IfStmt).Cond
		check("condition left", cond.Left, i)
		check("condition right", cond.Right, i)
	}
}
