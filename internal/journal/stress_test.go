package journal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestStressStores drives each store from 8 goroutines at once. Each
// goroutine appends two sessions' certified records in small chunks,
// reads its own sessions back (exactly what it has appended) and a
// neighbour's (a prefix of that session), and lists the sessions (sorted,
// holding every session it has appended to). Afterwards every session
// reads back whole and in order, and for the file store so does a
// reopened store. Run it under -race to check the stores' locking.
func TestStressStores(t *testing.T) {
	const workers, perWorker, chunk = 8, 2, 3
	var ids []string
	want := map[string][]Record{}
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			id := fmt.Sprintf("s-%d-%d", w, k)
			recs, _, err := Certify(id, plainParams(), testArrivals(6+w+k))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			want[id] = recs
		}
	}

	hammer := func(t *testing.T, st Store) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mine := ids[w*perWorker : (w+1)*perWorker]
				other := ids[(w+1)%workers*perWorker]
				acked := map[string]int{}
				for more := true; more; {
					more = false
					for _, id := range mine {
						lo := acked[id]
						if lo == len(want[id]) {
							continue
						}
						more = true
						hi := min(lo+chunk, len(want[id]))
						if err := st.Append(id, want[id][lo:hi]); err != nil {
							t.Errorf("Append(%s): %v", id, err)
							return
						}
						acked[id] = hi
						if got, err := st.Read(id); err != nil || !reflect.DeepEqual(got, want[id][:hi]) {
							t.Errorf("Read(%s) after %d acknowledged records: %d records, %v", id, hi, len(got), err)
							return
						}
						switch got, err := st.Read(other); {
						case errors.Is(err, ErrUnknownSession):
						case err != nil || len(got) > len(want[other]) || !reflect.DeepEqual(got, want[other][:len(got)]):
							t.Errorf("Read(%s) is not a prefix of its records: %d records, %v", other, len(got), err)
							return
						}
						listed, err := st.Sessions()
						if err != nil || !slices.IsSorted(listed) {
							t.Errorf("Sessions() = %v, %v: want a sorted listing", listed, err)
							return
						}
						for s := range acked {
							if !slices.Contains(listed, s) {
								t.Errorf("Sessions() = %v lacks %s", listed, s)
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	readsBack := func(t *testing.T, st Store) {
		listed, err := st.Sessions()
		if err != nil || !slices.Equal(listed, ids) {
			t.Fatalf("Sessions() = %v, %v, want %v", listed, err, ids)
		}
		for _, id := range ids {
			if got, err := st.Read(id); err != nil || !reflect.DeepEqual(got, want[id]) {
				t.Fatalf("Read(%s): %d of %d records, %v", id, len(got), len(want[id]), err)
			}
		}
	}

	t.Run("mem", func(t *testing.T) {
		st := NewMemStore()
		hammer(t, st)
		readsBack(t, st)
	})
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		st, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, st)
		readsBack(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = OpenFileStore(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st.Close()
		readsBack(t, st)
	})
}
