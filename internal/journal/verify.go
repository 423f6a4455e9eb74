package journal

import (
	"fmt"

	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/safemath"
)

// SessionFor builds a fresh online session from open parameters, for a
// session the server opens and for one rebuilt from its journal alike:
// the strategy is resolved in the registry by name, and the budget rule
// is enforced (a budget requires an admission-control strategy; an
// admission-control strategy requires a budget — without one it
// silently degenerates to plain BestFit, which a certificate must never
// do quietly). The canonical strategy name is returned alongside.
func SessionFor(p OpenParams) (*online.Session, string, error) {
	if p.Strategy == "" {
		return nil, "", fmt.Errorf("journal: open record names no strategy")
	}
	if p.Budget < 0 {
		return nil, "", fmt.Errorf("journal: budget %d, need >= 0", p.Budget)
	}
	alg, err := registry.LookupKind(registry.Online, p.Strategy)
	if err != nil {
		return nil, "", err
	}
	st := alg.NewStrategy()
	bs, budgeted := st.(online.BudgetSetter)
	switch {
	case p.Budget > 0 && !budgeted:
		return nil, "", fmt.Errorf("journal: strategy %s does not support a budget (use online-budget)", alg.Name)
	case p.Budget == 0 && budgeted:
		return nil, "", fmt.Errorf("journal: strategy %s needs a positive budget (it admits everything without one)", alg.Name)
	case budgeted:
		bs.SetBudget(p.Budget)
	}
	sess, err := online.NewSession(p.G, st)
	if err != nil {
		return nil, "", err
	}
	return sess, alg.Name, nil
}

// ReplayState is a session rebuilt from its journal: the live session
// positioned after the last journaled arrival, ready to continue, plus
// the chain tail a continuing Writer must extend.
type ReplayState struct {
	// Params are the open record's session parameters.
	Params OpenParams
	// Session is the rebuilt session, never nil. When Closed it has
	// replayed every arrival but must accept no further ones
	// (ResumeWriter refuses a closed session); its state is the Summary.
	Session *online.Session
	// Records is the validated journal, open record first.
	Records []Record
	// Arrivals counts the event records — the online sequence number the
	// next arrival would receive.
	Arrivals int
	// LastSeq and LastHash are the chain tail.
	LastSeq  int64
	LastHash string
	// Closed reports a close record; Summary is its report.
	Closed  bool
	Summary online.Summary
}

// Replay validates a session's journal and rebuilds its live state: the
// chain is checked hash by hash, every structural invariant is enforced,
// and every arrival is re-offered through a fresh strategy with the
// recomputed event compared field-for-field against the recorded one.
// Online strategies are deterministic functions of the arrival sequence
// (the detreplay discipline), so any divergence means the journal does
// not describe a run this build could have produced.
func Replay(recs []Record) (*ReplayState, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("journal: empty journal")
	}
	head := recs[0]
	if head.Kind != KindOpen || head.Seq != 0 || head.Open == nil {
		return nil, fmt.Errorf("journal: first record is %s seq %d, want an open record at seq 0", head.Kind, head.Seq)
	}
	if head.Prev != genesisHex {
		return nil, fmt.Errorf("journal: open record prev %q is not the genesis hash", head.Prev)
	}
	if !ValidSessionID(head.Session) {
		return nil, fmt.Errorf("journal: invalid session id %q", head.Session)
	}

	st := &ReplayState{Params: *head.Open, Records: recs}
	sess, _, err := SessionFor(st.Params)
	if err != nil {
		return nil, err
	}
	st.Session = sess

	prevHash := genesisHex
	prevSeq := int64(-1)
	var buf []byte
	for i, rec := range recs {
		if rec.Session != head.Session {
			return nil, fmt.Errorf("journal: record %d belongs to session %q, not %q", i, rec.Session, head.Session)
		}
		if rec.Prev != prevHash {
			return nil, fmt.Errorf("journal: record %d prev hash %s breaks the chain (want %s)", i, rec.Prev, prevHash)
		}
		if rec.Seq != safemath.SatAdd(prevSeq, 1) {
			return nil, fmt.Errorf("journal: record %d has seq %d, want %d", i, rec.Seq, safemath.SatAdd(prevSeq, 1))
		}
		if err := checkSeal(&rec, &buf); err != nil {
			return nil, err
		}
		if st.Closed {
			return nil, fmt.Errorf("journal: record %d follows the close record", i)
		}
		switch rec.Kind {
		case KindOpen:
			if i != 0 {
				return nil, fmt.Errorf("journal: record %d is a second open record", i)
			}
			if rec.Arrival != nil || rec.Event != nil || rec.Close != nil {
				return nil, fmt.Errorf("journal: open record carries a stray payload")
			}
		case KindEvent:
			if rec.Arrival == nil || rec.Event == nil || rec.Open != nil || rec.Close != nil {
				return nil, fmt.Errorf("journal: record %d is not a well-formed event record", i)
			}
			j, err := rec.Arrival.Job()
			if err != nil {
				return nil, err
			}
			got, err := sess.Offer(j)
			if err != nil {
				return nil, fmt.Errorf("journal: replaying record %d: %v", i, err)
			}
			if got != *rec.Event {
				return nil, fmt.Errorf("journal: record %d event %+v does not match the replayed placement %+v", i, *rec.Event, got)
			}
			st.Arrivals++
		case KindClose:
			if rec.Close == nil || rec.Open != nil || rec.Arrival != nil || rec.Event != nil {
				return nil, fmt.Errorf("journal: record %d is not a well-formed close record", i)
			}
			got := sess.Summary()
			if got != *rec.Close {
				return nil, fmt.Errorf("journal: close record %+v does not match the replayed summary %+v", *rec.Close, got)
			}
			st.Closed = true
			st.Summary = got
		default:
			return nil, fmt.Errorf("journal: record %d has unknown kind %q", i, rec.Kind)
		}
		prevHash = rec.Hash
		prevSeq = rec.Seq
	}
	st.LastSeq = prevSeq
	st.LastHash = prevHash
	return st, nil
}

// Certificate is the verified identity of a complete session: its
// parameters, the length and tail hash of its chain, and the close
// report the chain certifies.
type Certificate struct {
	Session  string
	Strategy string
	G        int
	Budget   int64
	// Entries counts all records, Arrivals just the event records.
	Entries  int
	Arrivals int
	// Chain is the final hash — what the serving layer emits on the
	// close event.
	Chain   string
	Summary online.Summary
}

// Verify checks a complete session journal end to end: the hash chain,
// the structural invariants, the placement-by-placement replay
// equivalence and the close report, requiring the session to actually be
// closed. Any single-byte change to any record fails either the JSON
// decode, a hash check, or the replay comparison.
func Verify(recs []Record) (Certificate, error) {
	st, err := Replay(recs)
	if err != nil {
		return Certificate{}, err
	}
	if !st.Closed {
		return Certificate{}, fmt.Errorf("journal: session %s is not closed (%d arrivals journaled); resume it or verify after close", recs[0].Session, st.Arrivals)
	}
	return Certificate{
		Session:  recs[0].Session,
		Strategy: st.Summary.Strategy,
		G:        st.Params.G,
		Budget:   st.Params.Budget,
		Entries:  len(st.Records),
		Arrivals: st.Arrivals,
		Chain:    st.LastHash,
		Summary:  st.Summary,
	}, nil
}

// ResumeWriter continues an unclosed replayed session: the returned
// Writer is positioned at the chain tail, so the next staged event
// extends the same chain the interrupted run left behind.
func ResumeWriter(store Store, st *ReplayState) (*Writer, error) {
	if st.Closed {
		return nil, fmt.Errorf("journal: session %s is closed", st.Records[0].Session)
	}
	return &Writer{
		store:    store,
		session:  st.Records[0].Session,
		lastSeq:  st.LastSeq,
		lastHash: st.LastHash,
	}, nil
}

// Certify runs the arrivals through a fresh session while journaling
// them, then verifies the result — the offline mirror of a served
// stream. Two uses: tests and busysim build the journal (and certificate
// chain) an uninterrupted server session must reproduce byte for byte,
// and the conformance harness cross-checks live ≡ journal ≡ offline.
func Certify(session string, p OpenParams, arrivals []Arrival) ([]Record, Certificate, error) {
	store := NewMemStore()
	w, err := NewWriter(store, session, p)
	if err != nil {
		return nil, Certificate{}, err
	}
	sess, _, err := SessionFor(p)
	if err != nil {
		return nil, Certificate{}, err
	}
	for _, a := range arrivals {
		j, err := a.Job()
		if err != nil {
			return nil, Certificate{}, err
		}
		ev, err := sess.Offer(j)
		if err != nil {
			return nil, Certificate{}, err
		}
		if _, err := w.StageEvent(a, ev); err != nil {
			return nil, Certificate{}, err
		}
	}
	if _, err := w.Close(sess.Summary()); err != nil {
		return nil, Certificate{}, err
	}
	recs, err := store.Read(session)
	if err != nil {
		return nil, Certificate{}, err
	}
	cert, err := Verify(recs)
	if err != nil {
		return nil, Certificate{}, err
	}
	return recs, cert, nil
}
