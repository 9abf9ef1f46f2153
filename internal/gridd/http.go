package gridd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/lease"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP surface, one codec over the
// operations plus /metrics and /healthz, for cmd/gridd's listener or a
// test's httptest.Server: the Server owns no socket. A request that has
// to park parks on the monitor.
func (s *Server) Handler() http.Handler { return s.mux }

// RoundTrip serves req on the caller's goroutine: a Server is the
// http.RoundTripper of a client in the same process, whose requests
// and replies cross both JSON codecs and no socket. On a NewServerOn
// server the caller is a process of the server's own clock.
func (s *Server) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	w := &recorder{code: http.StatusOK, header: http.Header{}}
	s.mux.ServeHTTP(w, req)
	return &http.Response{
		StatusCode: w.code, Header: w.header, Request: req,
		Body: io.NopCloser(&w.body), ContentLength: int64(w.body.Len()),
	}, nil
}

// recorder is the http.ResponseWriter of an in-process round trip.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.header }
func (w *recorder) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *recorder) WriteHeader(code int)        { w.code = code }

// routes builds the codec, once per server.
func (s *Server) routes() *http.ServeMux {
	p, _ := s.host.(lease.Parker)
	mux := http.NewServeMux()
	mux.Handle("GET /probe/{name}", serve(p, plain(s.Probe)))
	mux.Handle("POST /acquire", serve(p, s.Acquire))
	mux.Handle("POST /release", serve(p, plain(s.Release)))
	mux.Handle("POST /renew", serve(p, plain(s.Renew)))
	mux.Handle("POST /reserve", serve(p, plain(s.Reserve)))
	mux.Handle("POST /claim", serve(p, plain(s.Claim)))
	mux.Handle("POST /cancel", serve(p, plain(s.Cancel)))
	mux.Handle("POST /resources", serve(p, plain(s.Create)))
	mux.Handle("GET /stats/{name}", serve(p, plain(s.Stats)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// plain lifts an operation that never parks to Acquire's shape.
func plain[Req, Rep any](fn func(Req) (Rep, *ErrorReply)) func(lease.Parker, context.Context, Req) (Rep, *ErrorReply) {
	return func(_ lease.Parker, _ context.Context, in Req) (Rep, *ErrorReply) { return fn(in) }
}

// serve is the codec: it decodes the {name} path segment, or else a
// JSON body of at most 64 KiB (the largest honest one, a CreateRequest,
// is a few hundred bytes), calls fn, and writes its reply or its error's
// status after fn let go of the lock: JSON is never encoded under it.
func serve[Req, Rep any](p lease.Parker, fn func(lease.Parker, context.Context, Req) (Rep, *ErrorReply)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var in Req
		if name, ok := any(&in).(*string); ok {
			*name = req.PathValue("name")
		} else if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 64<<10)).Decode(&in); err != nil {
			fail(w, &ErrorReply{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		out, er := fn(p, req.Context(), in)
		if er != nil {
			fail(w, er)
			return
		}
		reply(w, out)
	}
}

// reply writes v as JSON with status 200.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// fail writes an ErrorReply with the HTTP status its code maps to.
func fail(w http.ResponseWriter, er *ErrorReply) {
	status := http.StatusBadRequest
	switch er.Code {
	case CodeBusy, CodeRejected, CodeEarly:
		status = http.StatusConflict
	case CodeStale, CodeLapsed:
		status = http.StatusGone
	case CodeDraining:
		status = http.StatusServiceUnavailable
	case CodeUnknown:
		status = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(er)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.host.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	n := len(s.res)
	s.host.Unlock()
	reply(w, map[string]any{
		"status":         status,
		"uptime_seconds": s.host.Elapsed().Seconds(),
		"resources":      n,
	})
}

// handleMetrics registers every resource's families, in creation
// order, with a registry of the scrape's own and samples them once
// under the lock, then writes the samples after letting go. The daemon
// keeps no series between scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := obs.New()
	s.host.Lock()
	sc := reg.NewScope(s.host.Elapsed)
	for _, r := range s.order {
		r.observe(sc)
	}
	sc.Sample()
	s.host.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WriteProm(w)
}
