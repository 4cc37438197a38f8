package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenSpec is the attacksweep golden's job, as CI submits it.
const goldenSpec = `{"kind":"attack","seed":7,"attack":{"victims":["ttable"],"policies":["treeplru"],"symbols":6}}`

// goldenSpecKey pins goldenSpec's content key. Keys name the reports
// in every -store-dir store, so a change here strands every stored
// report: it must come from a ResultsVersion bump, never from an
// incidental change to an enum's order or a profile's fields.
const goldenSpecKey = "521917f6d1aee0c1564bc4380b7511ce487e906caeb9a9c547ba73ed538bc1ee"

func TestContentKeyPinned(t *testing.T) {
	var sp Spec
	if err := json.Unmarshal([]byte(goldenSpec), &sp); err != nil {
		t.Fatal(err)
	}
	if got := mustKey(t, sp); got != goldenSpecKey {
		t.Errorf("golden spec key = %s, want %s", got, goldenSpecKey)
	}
}

// goldenDigests maps each ResultsVersion to the digest of the goldens
// the three job kinds render (see TestResultsVersionPinsGoldens).
var goldenDigests = map[int]string{
	1: "250ee86a10758aa0ed29cf07afe9dada8641b704e40428b4e404cb7ff48a21b0",
}

// A golden rendered by a job kind cannot change unless ResultsVersion
// changes with it: otherwise a daemon restarted on an old store would
// serve the old report under the new code. leakage.golden is not
// hashed, because no job kind renders it.
func TestResultsVersionPinsGoldens(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"attacksweep", "probesweep", "schedsweep", "streamsweep", "roc"} {
		g := readGolden(t, name)
		fmt.Fprintf(h, "%s %d\n%s", name, len(g), g)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := goldenDigests[ResultsVersion]; got != want {
		t.Errorf("the job goldens hash to %s, but goldenDigests[%d] = %q: "+
			"a change that alters a job report must bump ResultsVersion and record the new digest",
			got, ResultsVersion, want)
	}
}
