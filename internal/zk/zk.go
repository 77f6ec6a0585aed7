// Package zk implements an in-process coordination service modeled on
// ZooKeeper, which HBase uses for naming, configuration, liveness, and
// master election (paper §III-B). It offers a hierarchical namespace of
// znodes, ephemeral nodes tied to client sessions, one-shot watches, and a
// simple leader-election recipe.
//
// The simulated HBase cluster stores its meta location here, and clients
// consult it on connection setup — so the number of coordination round
// trips that SHC's connection cache eliminates is observable in metrics.
package zk

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the coordination service.
var (
	ErrNoNode     = errors.New("zk: node does not exist")
	ErrNodeExists = errors.New("zk: node already exists")
	ErrNotEmpty   = errors.New("zk: node has children")
	ErrClosed     = errors.New("zk: session closed")
	ErrExpired    = errors.New("zk: session expired")
	ErrBadPath    = errors.New("zk: invalid path")
	ErrBadVersion = errors.New("zk: version mismatch")
)

// EventType describes what happened to a watched znode.
type EventType int

// Watch event kinds.
const (
	EventCreated EventType = iota
	EventDataChanged
	EventDeleted
)

// Event is delivered on a watch channel when a znode changes.
type Event struct {
	Type EventType
	Path string
}

type node struct {
	data      []byte
	children  map[string]*node
	ephemeral int64 // owning session id, 0 for persistent
	version   int64
}

// Server is the coordination service. The zero value is not usable; call
// NewServer.
type Server struct {
	mu      sync.Mutex
	root    *node
	nextSID int64
	watches map[string][]chan Event // one-shot watches per path
}

// NewServer returns an empty coordination service with just the root node.
func NewServer() *Server {
	return &Server{
		root:    &node{children: make(map[string]*node)},
		watches: make(map[string][]chan Event),
	}
}

// Session is a client connection. Ephemeral nodes created through a session
// are removed when the session closes, which is how region servers and the
// master advertise liveness.
type Session struct {
	srv     *Server
	id      int64
	mu      sync.Mutex
	closed  bool
	expired bool
}

// NewSession opens a session against the server.
func (s *Server) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSID++
	return &Session{srv: s, id: s.nextSID}
}

// ID returns the session's identifier: unique on its server, and handed out
// in the order sessions were opened.
func (sess *Session) ID() int64 { return sess.id }

func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") || strings.Contains(path, "//") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	path = strings.TrimSuffix(path, "/")
	if path == "" {
		return nil, nil // the root
	}
	return strings.Split(path[1:], "/"), nil
}

// locked; returns the node at path or nil.
func (s *Server) lookup(parts []string) *node {
	n := s.root
	for _, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return nil
		}
		n = c
	}
	return n
}

func (s *Server) fire(path string, typ EventType) {
	chans := s.watches[path]
	delete(s.watches, path)
	for _, ch := range chans {
		ch <- Event{Type: typ, Path: path}
		close(ch)
	}
}

func (sess *Session) check() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return ErrClosed
	}
	if sess.expired {
		return ErrExpired
	}
	return nil
}

// Create makes a new znode at path holding data. Parent nodes must already
// exist. Ephemeral nodes disappear when the creating session closes.
func (sess *Session) Create(path string, data []byte, ephemeral bool) error {
	if err := sess.check(); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrNodeExists
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	parent := s.lookup(parts[:len(parts)-1])
	if parent == nil {
		return fmt.Errorf("%w: parent of %q", ErrNoNode, path)
	}
	name := parts[len(parts)-1]
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %q", ErrNodeExists, path)
	}
	n := &node{data: append([]byte(nil), data...), children: make(map[string]*node)}
	if ephemeral {
		n.ephemeral = sess.id
	}
	parent.children[name] = n
	s.fire(path, EventCreated)
	return nil
}

// Get returns the data stored at path.
func (sess *Session) Get(path string) ([]byte, error) {
	if err := sess.check(); err != nil {
		return nil, err
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(parts)
	if n == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	return append([]byte(nil), n.data...), nil
}

// Set replaces the data at path.
func (sess *Session) Set(path string, data []byte) error {
	if err := sess.check(); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(parts)
	if n == nil {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	n.data = append([]byte(nil), data...)
	n.version++
	s.fire(path, EventDataChanged)
	return nil
}

// GetVersion returns the data stored at path along with the node's version,
// for use with SetIf. A freshly created node has version 0; every Set or
// SetIf increments it.
func (sess *Session) GetVersion(path string) ([]byte, int64, error) {
	if err := sess.check(); err != nil {
		return nil, 0, err
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, 0, err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(parts)
	if n == nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	return append([]byte(nil), n.data...), n.version, nil
}

// SetIf replaces the data at path only if the node's version still equals
// version — ZooKeeper's conditional setData, the compare-and-swap that lets
// concurrent masters race for an epoch bump with exactly one winner. It
// returns ErrBadVersion when another writer got there first.
func (sess *Session) SetIf(path string, data []byte, version int64) error {
	if err := sess.check(); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(parts)
	if n == nil {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	if n.version != version {
		return fmt.Errorf("%w: %q at version %d, expected %d", ErrBadVersion, path, n.version, version)
	}
	n.data = append([]byte(nil), data...)
	n.version++
	s.fire(path, EventDataChanged)
	return nil
}

// Delete removes the znode at path; it must have no children.
func (sess *Session) Delete(path string) error {
	if err := sess.check(); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadPath
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	parent := s.lookup(parts[:len(parts)-1])
	if parent == nil {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	delete(parent.children, name)
	s.fire(path, EventDeleted)
	return nil
}

// Exists reports whether a znode is present at path.
func (sess *Session) Exists(path string) (bool, error) {
	if err := sess.check(); err != nil {
		return false, err
	}
	parts, err := splitPath(path)
	if err != nil {
		return false, err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(parts) != nil, nil
}

// Children lists the names of path's children in sorted order.
func (sess *Session) Children(path string) ([]string, error) {
	if err := sess.check(); err != nil {
		return nil, err
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(parts)
	if n == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Watch registers a one-shot watch on path. The returned channel receives
// exactly one event for the next create, data change, or delete of that
// path, then is closed.
func (sess *Session) Watch(path string) (<-chan Event, error) {
	if err := sess.check(); err != nil {
		return nil, err
	}
	if _, err := splitPath(path); err != nil {
		return nil, err
	}
	ch := make(chan Event, 1)
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watches[path] = append(s.watches[path], ch)
	return ch, nil
}

// Close terminates the session and removes its ephemeral nodes.
func (sess *Session) Close() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	sess.mu.Unlock()

	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeEphemerals(s.root, "", sess.id)
}

// ExpireSession expires a session server-side: its ephemeral nodes are
// removed (firing watches, exactly as if the client had died) and every
// later operation through the session fails with ErrExpired. This models a
// client that paused — a GC stall, a partition — long enough for ZooKeeper
// to time the session out while the process itself is still running: the
// canonical zombie. Unlike Close, the client did not choose this; it finds
// out the hard way on its next call.
func (s *Server) ExpireSession(sess *Session) {
	if sess == nil || sess.srv != s {
		return
	}
	sess.mu.Lock()
	if sess.closed || sess.expired {
		sess.mu.Unlock()
		return
	}
	sess.expired = true
	sess.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeEphemerals(s.root, "", sess.id)
}

// locked; walks the tree removing ephemerals owned by sid.
func (s *Server) removeEphemerals(n *node, prefix string, sid int64) {
	for name, c := range n.children {
		path := prefix + "/" + name
		s.removeEphemerals(c, path, sid)
		if c.ephemeral == sid && len(c.children) == 0 {
			delete(n.children, name)
			s.fire(path, EventDeleted)
		}
	}
}

// ElectLeader attempts to become leader by creating an ephemeral node at
// path with id as data. It returns true if this session now holds
// leadership, false if another live session does.
func (sess *Session) ElectLeader(path string, id string) (bool, error) {
	err := sess.Create(path, []byte(id), true)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNodeExists) {
		return false, nil
	}
	return false, err
}

// Leader returns the id stored by the current leader at path, or "" when
// no leader is elected.
func (sess *Session) Leader(path string) (string, error) {
	data, err := sess.Get(path)
	if errors.Is(err, ErrNoNode) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return string(data), nil
}
