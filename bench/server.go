package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is a running `evilbloom serve` child process.
type server struct {
	cmd      *exec.Cmd
	started  time.Time // just before exec
	httpAddr string
	respAddr string
	exited   chan struct{} // closed once the process has been reaped
	waitErr  error
	log      *strings.Builder // the child's stderr, for error reports
}

// startServer executes bin serve on two free loopback ports and returns once
// both listeners are bound, which the child announces on stderr.
func startServer(bin string, args []string) (*server, error) {
	full := append([]string{"serve", "-addr", "127.0.0.1:0", "-resp-addr", "127.0.0.1:0"}, args...)
	s := &server{cmd: exec.Command(bin, full...), exited: make(chan struct{}), log: &strings.Builder{}}
	// Whatever ends this process, the child must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// The listeners are announced in this order; the RESP line comes last,
	// after both sockets are bound.
	const httpMark, respMark = "listening on http://", "RESP plane on "
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			s.log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, httpMark); ok && s.httpAddr == "" {
				s.httpAddr = rest
			}
			if _, rest, ok := strings.Cut(line, respMark); ok && !announced {
				s.respAddr, _, _ = strings.Cut(rest, " ")
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- errors.New("server exited before announcing its listeners")
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining a dead pipe
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			<-s.exited
			return nil, fmt.Errorf("%w; stderr:\n%s", err, s.log)
		}
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not announce its listeners within 60s; stderr:\n%s", s.log)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks for the graceful drain-and-flush shutdown and waits for the
// process to end; a server that ignores the request is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("server shutdown: %w; stderr:\n%s", s.waitErr, s.log)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("server ignored SIGTERM for 30s; killed")
	}
}

// kill ends the process at once and waits until it is gone.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.exited
}
