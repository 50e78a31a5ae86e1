package thing

import "sync"

// lockStripe is a distinct stripe type for the sanctioned barrier pattern.
type lockStripe struct {
	mu sync.Mutex
}

// ordered locks its stripes in ascending index order, the fixed global
// order that makes the self-edge safe; the directive records why.
func ordered(stripes []lockStripe) {
	for i := range stripes {
		stripes[i].mu.Lock() //vet:ignore lockorder,unlockpath stripes locked in ascending index order, all released below
	}
	for i := range stripes {
		stripes[i].mu.Unlock()
	}
}
