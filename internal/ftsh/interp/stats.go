package interp

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ftsh/token"
)

// Stats is the post-mortem record §4 promises: "Online or post-mortem
// analysis may determine more detailed reasons for process failure, the
// exact resources used to execute the program, the frequency of each
// failure branch, and so forth." The interpreter always collects it;
// read it after Run via Interp.Stats.
//
// Stats is safe for concurrent use, because forall branches execute in
// parallel under the real runtime.
type Stats struct {
	mu sync.Mutex

	// Commands maps command name to its invocation record.
	Commands map[string]*CommandStats
	// Trys maps a try construct's source position to its record.
	Trys map[token.Pos]*TryStats
	// ForanyWins maps a forany's source position to how often each
	// alternative won — the "frequency of each failure branch",
	// inverted: which branches actually carry the load.
	ForanyWins map[token.Pos]map[string]int64
}

// CommandStats records one command name's history.
type CommandStats struct {
	Runs     int64
	Failures int64
}

// TryStats records one try construct's history.
type TryStats struct {
	// Trys counts executions of the construct; Attempts counts body
	// attempts across them; Exhausted counts budget exhaustions;
	// CaughtBy counts exhaustions handled by a catch block.
	Trys, Attempts, Exhausted, CaughtBy int64
	// BackoffTotal accumulates time spent sleeping between attempts.
	BackoffTotal time.Duration
}

func newStats() *Stats {
	return &Stats{
		Commands:   make(map[string]*CommandStats),
		Trys:       make(map[token.Pos]*TryStats),
		ForanyWins: make(map[token.Pos]map[string]int64),
	}
}

// beginTry counts one execution of the try at pos and returns its
// record.
func (s *Stats) beginTry(pos token.Pos) *TryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.Trys[pos]
	if t == nil {
		t = &TryStats{}
		s.Trys[pos] = t
	}
	t.Trys++
	return t
}

func (s *Stats) recordCommand(name string, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.Commands[name]
	if c == nil {
		c = &CommandStats{}
		s.Commands[name] = c
	}
	c.Runs++
	if failed {
		c.Failures++
	}
}

func (s *Stats) recordForanyWin(pos token.Pos, item string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.ForanyWins[pos]
	if m == nil {
		m = make(map[string]int64)
		s.ForanyWins[pos] = m
	}
	m[item]++
}

// WriteTo renders a human-readable report. It implements io.WriterTo.
func (s *Stats) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString("commands:\n")
	for _, name := range sortedKeys(s.Commands, strings.Compare) {
		c := s.Commands[name]
		fmt.Fprintf(&b, "  %-20s runs=%-6d failures=%d\n", name, c.Runs, c.Failures)
	}
	b.WriteString("trys:\n")
	for _, pos := range sortedKeys(s.Trys, token.Pos.Compare) {
		t := s.Trys[pos]
		fmt.Fprintf(&b, "  %-8s trys=%-5d attempts=%-6d exhausted=%-4d caught=%-4d backoff=%v\n",
			pos, t.Trys, t.Attempts, t.Exhausted, t.CaughtBy, t.BackoffTotal)
	}
	if len(s.ForanyWins) > 0 {
		b.WriteString("forany winners:\n")
		for _, pos := range sortedKeys(s.ForanyWins, token.Pos.Compare) {
			wins := s.ForanyWins[pos]
			var parts []string
			for _, item := range sortedKeys(wins, strings.Compare) {
				parts = append(parts, fmt.Sprintf("%s:%d", item, wins[item]))
			}
			fmt.Fprintf(&b, "  %-8s %s\n", pos, strings.Join(parts, " "))
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// sortedKeys returns the keys of a map in the order of compare.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}
