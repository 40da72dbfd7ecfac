package instrument

import (
	"encoding/json"
	"testing"
)

// goldenSnapshot is goldenRegistry's JSON export, with an exemplar on
// one histogram and the infinite gauges unregistered (JSON has no
// infinities), as GET /metrics?format=json serves it.
const goldenSnapshot = `[{"name":"caladrius_inf","type":"gauge","series":null},{"name":"caladrius_latency_seconds","type":"histogram","help":"Request latency.","series":[{"buckets":[{"le":0.005,"count":0},{"le":0.1,"count":0},{"le":1,"count":1},{"le":1.7976931348623157e+308,"count":1}],"sum":0.2,"count":1},{"labels":{"route":"/x"},"buckets":[{"le":0.005,"count":1},{"le":0.1,"count":3},{"le":1,"count":4},{"le":1.7976931348623157e+308,"count":5}],"sum":2.601,"count":5,"exemplar":{"value":0.5,"trace":"req-9"}}]},{"name":"caladrius_queue_depth","type":"gauge","series":[{"value":-2.5}]},{"name":"caladrius_requests_total","type":"counter","help":"Requests served, by route and code.","series":[{"value":1e+21},{"labels":{"code":"200","route":"/api/v1/health"},"value":41},{"labels":{"code":"500","route":"/a\\b\"c\nd"},"value":1}]}]`

// TestSnapshotJSONGolden pins the JSON export byte for byte.
func TestSnapshotJSONGolden(t *testing.T) {
	r := goldenRegistry()
	r.Histogram("caladrius_latency_seconds", nil, Labels{"route": "/x"}).ObserveExemplar(0.5, "req-9")
	r.Unregister("caladrius_inf", Labels{"side": "+"})
	r.Unregister("caladrius_inf", Labels{"side": "-"})
	got, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenSnapshot {
		t.Errorf("snapshot JSON:\n%s\nwant:\n%s", got, goldenSnapshot)
	}
}
