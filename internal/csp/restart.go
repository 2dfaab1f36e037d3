package csp

// Luby-scheduled restarts for the learning engine. Each episode is a
// complete chronological search bounded by a conflict cutoff of
// lubyUnit*luby(i); when the cutoff fires the search unwinds to the root,
// the nogood store is decayed and (over capacity) shrunk, unit nogoods are
// re-applied, and the next episode starts with the learned nogoods
// redirecting propagation. Completeness survives the lossy store because
// the Luby sequence is unbounded: some episode's cutoff eventually exceeds
// the finite conflict count of a full tree, and that episode runs to an
// exhaustive verdict regardless of which nogoods were kept.

// lubyUnit is the conflict budget multiplier of the schedule.
const lubyUnit = 128

// luby returns the i-th element (i >= 1) of the Luby sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		p := int64(1)<<k - 1
		if i == p {
			return int64(1) << (k - 1)
		}
		if i < p {
			i -= int64(1)<<(k-1) - 1
			k = 0
		}
	}
}

// searchWithRestarts is the learning engine's search driver. It has the
// search() contract: true stops the solve (solution in *out, abort), false
// is an exhaustive UNSAT proof.
func (s *bitSearcher) searchWithRestarts(out *[]int) bool {
	for try := int64(1); ; try++ {
		if s.cancel.cancelledNow() {
			s.aborted = true
			return true
		}
		s.cutoff = lubyUnit * luby(try)
		s.conflicts = 0
		s.restartNow = false
		if try > 1 {
			s.stats.Restarts++
			s.undoToRoot()
			s.ngRestartMaintenance()
			if !s.applyRootUnits() || !s.propagate() {
				// A unit nogood (or its propagation) emptied a domain at the
				// root: UNSAT — unless the propagation was cancelled.
				return s.aborted
			}
		}
		stop := s.search(out)
		if !stop {
			return false // exhausted within the cutoff: UNSAT
		}
		if !s.restartNow {
			return true // solution, node limit, or cancellation
		}
	}
}

// undoToRoot unwinds all decisions and their propagation back to the
// post-root-propagation state, clearing any queued work.
func (s *bitSearcher) undoToRoot() {
	for len(s.trail) > s.rootMark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.d.Restore(int(e.v), int(e.val))
	}
	for _, dl := range s.decisions {
		s.assign[dl.v] = -1
	}
	s.decisions = s.decisions[:0]
	s.nAssigned = 0
	s.clearQueue()
}
