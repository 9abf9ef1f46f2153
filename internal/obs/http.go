package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Server is the live observability endpoint: /metrics (Prometheus
// text), /healthz (JSON), and the net/http/pprof handlers under
// /debug/pprof/, for a gridbench run's registry (-obs-addr). It is only
// meaningful on a wall-clock backend — the simulator has no wall-clock
// concurrency to observe. The gridd daemon serves its own /metrics.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve binds addr (":0" picks a free port; read it back with Addr)
// and serves the registry in the background. health, if non-nil, is
// polled on each /healthz request and its pairs are folded into the
// response JSON; it must be safe to call from the HTTP goroutine.
func Serve(addr string, reg *Registry, health func() map[string]string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var b strings.Builder
		b.WriteString(`{"status":"ok","uptime_seconds":`)
		b.WriteString(fmtFloat(time.Since(s.start).Seconds()))
		b.WriteString(`,"series":`)
		b.WriteString(strconv.Itoa(reg.SeriesCount()))
		if health != nil {
			m := health()
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.WriteByte(',')
				b.WriteString(strconv.Quote(k))
				b.WriteByte(':')
				b.WriteString(strconv.Quote(m[k]))
			}
		}
		b.WriteString("}\n")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down and stops serving.
func (s *Server) Close() error { return s.srv.Close() }
