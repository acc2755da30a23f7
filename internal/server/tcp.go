package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro"
	"repro/internal/mal"
	"repro/internal/sqlfe"
)

// The TCP protocol: one UTF-8 line per statement, one response block
// per statement. A response is zero or more data lines followed by a
// single terminator line:
//
//	ROW <name>\t<value>[\t<value>]*     one per exported result column
//	OK <cols> cols <elapsed> hits=<h>/<m>
//	OK <insert|delete> <n> rows         a write's whole response
//	ERR <message>
//
// Tab, newline, carriage return and backslash inside string values
// are escaped as \t, \n, \r and \\ so stored data can never break the
// line/tab framing.
//
// Client commands (case-insensitive): STATS prints a one-line pool
// summary; QUIT closes the connection; every other line is one SQL
// statement for the connection's repro.Session (Session.ExecSQL), so
// per-client counters accumulate server-side and all sessions share
// the engine's recycle pool.

// ServeTCP accepts connections on ln until the listener is closed
// (Shutdown closes it). It blocks; run it on its own goroutine.
func (s *Server) ServeTCP(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrShuttingDown
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connWG.Done()
	}()
	sess := s.eng.NewSession()
	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		word := strings.ToUpper(firstWord(line))
		if word == "QUIT" {
			fmt.Fprintln(w, "OK bye")
			w.Flush()
			return
		}
		s.protectedServeLine(w, sess, word, line)
		w.Flush()
	}
}

// protectedServeLine runs one statement, converting a panic anywhere
// below (engine, catalog) into an ERR response instead of
// killing the whole server process: one poisoned statement must not
// take down every other connection.
func (s *Server) protectedServeLine(w *bufio.Writer, sess *repro.Session, word, line string) {
	defer func() {
		if r := recover(); r != nil {
			s.errorsN.Add(1)
			fmt.Fprintf(w, "ERR internal: %v\n", r)
		}
	}()
	s.serveLine(w, sess, word, line)
}

// serveLine executes one statement line and writes its response block.
func (s *Server) serveLine(w *bufio.Writer, sess *repro.Session, word, line string) {
	if word == "STATS" {
		st := sess.Stats()
		es := s.eng.StatsSnapshot()
		fmt.Fprintf(w, "OK session queries=%d hits=%d/%d pool entries=%d bytes=%d reuses=%d\n",
			st.Queries, st.Hits, st.Marked, es.Recycler.Entries, es.Recycler.Bytes, es.Recycler.Reuses)
		return
	}
	if err := s.acquire(context.Background()); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	defer s.release() // deferred so a panicking statement cannot leak the slot
	if sqlfe.IsWrite(line) {
		s.execs.Add(1)
	} else {
		s.queries.Add(1)
	}
	res, err := sess.ExecSQL(line)
	if err != nil {
		s.errorsN.Add(1)
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if res.Op != "" {
		fmt.Fprintf(w, "OK %s %d rows\n", res.Op, res.RowsAffected)
		return
	}
	for _, r := range res.Results {
		writeRow(w, r, s.cfg.MaxRows)
	}
	fmt.Fprintf(w, "OK %d cols %v hits=%d/%d\n", len(res.Results),
		res.Stats.Elapsed.Round(time.Microsecond),
		res.Stats.HitsNonBind, res.Stats.MarkedNonBind)
}

// writeRow writes one result column as a ROW line. Column values go
// through appendCell's row spelling, which escapes the field separator
// (tab), the statement terminator (newline, carriage return) and the
// escape character itself, so stored data cannot break the framing; a
// scalar is written in its display form, escaped the same way.
func writeRow(w *bufio.Writer, r mal.Result, maxRows int) {
	line := append(append(make([]byte, 0, 64), "ROW "...), r.Name...)
	if r.Val.Kind != mal.VBat {
		line = appendRowEscaped(append(line, '\t'), r.Val.String())
	} else if b := r.Val.Bat; b != nil {
		n := min(b.Len(), maxRows)
		for i := 0; i < n; i++ {
			line = appendCell(append(line, '\t'), b.Tail, i, rowWire)
		}
	}
	w.Write(append(line, '\n'))
}

func firstWord(line string) string {
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i]
	}
	return line
}
