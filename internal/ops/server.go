package ops

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

// ServerConfig wires the ops endpoint to its data sources. Every source is
// optional: a missing one makes its endpoint serve an empty (but
// well-formed) response rather than fail, so the server can front a
// partially-assembled stack.
type ServerConfig struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr    string
	Metrics *metrics.Registry
	Journal *Journal
	Stats   *StatsTable
	// Status produces the /statusz cluster snapshot.
	Status func() ClusterStatus
	// Health reports readiness for /healthz; nil error = healthy. A nil
	// func is always healthy.
	Health func() error
}

// Server is the HTTP ops endpoint: /metrics (Prometheus exposition),
// /healthz, /statusz (cluster snapshot), /events (journal tail),
// /queries (fingerprint table), and /debug/pprof (with pprof labels
// attached by the engine and exec layers, so profiles attribute CPU to
// query fingerprints and regions). It binds its own mux — never the
// process-global DefaultServeMux — so tests can run many instances.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// StartServer binds cfg.Addr and serves until Close. The returned server
// is already accepting when this returns, so a caller can scrape
// immediately.
func StartServer(cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/queries", s.handleQueries)
	// pprof handlers are registered on our mux explicitly — importing
	// net/http/pprof for its side effect would pollute DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolving ":0" to the real port).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close shuts the server down: graceful drain first so an in-flight
// scrape completes, then a hard close so a stuck one cannot leak the
// listener or the serve goroutine.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WriteExposition(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Health != nil {
		if err := s.cfg.Health(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var st ClusterStatus
	if s.cfg.Status != nil {
		st = s.cfg.Status()
	}
	if st.Time.IsZero() {
		st.Time = time.Now()
	}
	writeJSON(w, st)
}

// handleEvents serves the journal tail. Query params map onto Filter:
// ?type=ReplicaPromoted,ServerFenced&region=r&server=h&since=seq&last=n.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f Filter
	if ts := q.Get("type"); ts != "" {
		for _, t := range strings.Split(ts, ",") {
			if t = strings.TrimSpace(t); t != "" {
				f.Types = append(f.Types, EventType(t))
			}
		}
	}
	f.Region = q.Get("region")
	f.Server = q.Get("server")
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		f.SinceSeq = n
	}
	if v := q.Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad last: "+err.Error(), http.StatusBadRequest)
			return
		}
		f.Last = n
	}
	events := s.cfg.Journal.Events(f)
	if events == nil {
		events = []Event{}
	}
	writeJSON(w, struct {
		LastSeq uint64  `json:"last_seq"`
		Dropped uint64  `json:"dropped,omitempty"`
		Events  []Event `json:"events"`
	}{s.cfg.Journal.LastSeq(), s.cfg.Journal.Dropped(), events})
}

// handleQueries serves the fingerprint table, heaviest first (?n= caps it).
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	stats := s.cfg.Stats.Top(n)
	if stats == nil {
		stats = []QueryStat{}
	}
	writeJSON(w, struct {
		Queries []QueryStat `json:"queries"`
	}{stats})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
