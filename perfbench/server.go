package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one booted ejserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// bootServer starts bin with args, its log in logPath, and waits for
// /readyz to answer 200.
func bootServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("choosing a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxClients,
			MaxIdleConnsPerHost: maxClients,
		}},
		exited: make(chan error, 1),
		log:    logf,
	}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			s.stop()
			return nil, fmt.Errorf("ejserve exited during boot (%v); log in %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ejserve not ready after 60s; log in %s", logPath)
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it if the
// drain takes too long) and closes its log.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
	s.log.Close()
}

// peakRSSMB is the server's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// do sends one request and decodes a 2xx JSON answer into out.
func (s *server) do(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// createTable ingests t, replacing any table of the same name.
func (s *server) createTable(ctx context.Context, t tableSpec) error {
	body := map[string]any{"name": t.Name, "schema": t.Schema, "csv": t.CSV, "precision": t.Prec.String()}
	return s.do(ctx, http.MethodPost, "/tables?replace=true", body, nil)
}

// match is one join pair as the server returns it.
type match struct {
	Left  int     `json:"left"`
	Right int     `json:"right"`
	Sim   float32 `json:"sim"`
}

// query runs sql and returns its matches.
func (s *server) query(ctx context.Context, sql string) ([]match, error) {
	var resp struct {
		Matches []match `json:"matches"`
	}
	if err := s.do(ctx, http.MethodPost, "/query", map[string]any{"sql": sql}, &resp); err != nil {
		return nil, err
	}
	return resp.Matches, nil
}

// storeStats is the embedding store section of /stats.
type storeStats struct {
	ModelCalls int64 `json:"model_calls"`
	Evictions  int64 `json:"evictions"`
}

// serverStats is the part of /stats the benchmark reads. A sharded
// server reports the shared store under each shard.
type serverStats struct {
	AdmissionWaits int64       `json:"admission_waits"`
	Store          *storeStats `json:"store"`
	PerShard       []struct {
		Store storeStats `json:"store"`
	} `json:"per_shard"`
}

func (st serverStats) store() storeStats {
	if st.Store != nil {
		return *st.Store
	}
	if len(st.PerShard) > 0 {
		return st.PerShard[0].Store
	}
	return storeStats{}
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	err := s.do(ctx, http.MethodGet, "/stats", nil, &st)
	return st, err
}

// digest fingerprints a match list exactly, order included.
func digest(ms []match) [32]byte {
	h := sha256.New()
	var b [12]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint32(b[0:], uint32(m.Left))
		binary.LittleEndian.PutUint32(b[4:], uint32(m.Right))
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(m.Sim))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// serverArgs is the full ejserve flag set of one boot of w.
func serverArgs(w workload, dataDir string) []string {
	args := append([]string(nil), w.ServerArgs...)
	if w.Durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
