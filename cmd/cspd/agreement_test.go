package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
	"csdb/internal/schaefer"
)

// agreementFamilies is one instance per generator family, with the route
// strategy=auto must take on it.
func agreementFamilies(t *testing.T) []struct {
	name, route string
	inst        *csp.Instance
} {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	horn := &schaefer.Instance{
		Template: &schaefer.Template{Rels: []*schaefer.BoolRel{gen.ClosedBoolRel(rng, 3, schaefer.Horn, 2)}},
		NumVars:  6,
		Cons: []schaefer.Application{
			{Rel: 0, Scope: []int{0, 1, 2}}, {Rel: 0, Scope: []int{2, 3, 4}},
			{Rel: 0, Scope: []int{4, 5, 0}}, {Rel: 0, Scope: []int{1, 3, 5}},
		},
	}
	schaeferInst, err := horn.ToCSP()
	if err != nil {
		t.Fatal(err)
	}
	twoTree, _ := gen.PartialKTree(rng, 8, 2, 0)
	return []struct {
		name, route string
		inst        *csp.Instance
	}{
		{"tree", "tree", gen.CSPOnGraph(rng, gen.RandomTree(rng, 8), 3, 0.3)},
		{"schaefer", "schaefer", schaeferInst},
		{"acyclic", "acyclic", gen.AcyclicCSP(rng, 6, 3, 3, 0.3)},
		{"partial-2-tree", "width", gen.CSPOnGraph(rng, twoTree, 3, 0.2)},
		{"phase-transition", "hard", gen.PhaseTransition(rng, 10, 3, 0.5)},
	}
}

var summaryRoute = regexp.MustCompile(`route=(\w+)`)

// TestCSolveAgreesWithCspd is the cross-binary gate: for one instance per
// generator family and every strategy-table row, the csolve binary and the
// in-process cspd handler return the same verdict and the same route (none
// for engine rows). A name the table no longer serves (parallel, join) is
// refused by both: csolve exits 2 and cspd answers 400 unknown strategy.
func TestCSolveAgreesWithCspd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not found: %v", err)
	}
	dir := t.TempDir()
	csolve := filepath.Join(dir, "csolve")
	if out, err := exec.Command(goBin, "build", "-o", csolve, "../csolve").CombinedOutput(); err != nil {
		t.Fatalf("building csolve: %v\n%s", err, out)
	}
	ts, _ := startDaemon(t)

	for _, fam := range agreementFamilies(t) {
		var body bytes.Buffer
		if err := cspio.Format(&body, fam.inst); err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, fam.name+".csp")
		if err := os.WriteFile(file, body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range dispatch.Names() {
			out, err := exec.Command(csolve, "-strategy", name, "-timeout", "10s", file).Output()
			if err != nil {
				t.Fatalf("%s/%s: csolve: %v", fam.name, name, err)
			}
			line := strings.SplitN(string(out), "\n", 2)[0]
			cliVerdict, _, _ := strings.Cut(line, " ")
			cliRoute := ""
			if m := summaryRoute.FindStringSubmatch(line); m != nil {
				cliRoute = m[1]
			}

			res := postSolve(t, ts, "strategy="+name+"&timeout=10s", body.String())
			verdict := "UNSAT"
			switch {
			case res.Aborted:
				verdict = "UNKNOWN"
			case res.Found:
				verdict = "SAT"
			}
			if cliVerdict != verdict || cliRoute != res.Route {
				t.Fatalf("%s/%s: csolve %s route %q, cspd %s route %q", fam.name, name,
					cliVerdict, cliRoute, verdict, res.Route)
			}
			wantRoute := ""
			if name == "auto" {
				wantRoute = fam.route
			}
			if res.Route != wantRoute {
				t.Fatalf("%s/%s: route %q, want %q", fam.name, name, res.Route, wantRoute)
			}
		}
	}

	sample := filepath.Join(dir, "tree.csp")
	for _, name := range []string{"parallel", "join"} {
		cmd := exec.Command(csolve, "-strategy", name, sample)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "unknown strategy") {
			t.Fatalf("csolve -strategy %s: err %v, stderr %q; want exit 2 naming the unknown strategy", name, err, stderr.String())
		}
		resp, err := http.Post(ts.URL+"/solve?strategy="+name, "text/plain", strings.NewReader(sampleInstance))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown strategy") {
			t.Fatalf("cspd strategy=%s: status %d body %q, want 400 unknown strategy", name, resp.StatusCode, msg)
		}
	}
}
