// The sealed wire codec: binary frames, no JSON. A file that still
// carries the retired //paglint:sealed directive is not exempt.
//paglint:sealed

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
)

func sealFrame(kind byte, n uint64) []byte {
	payload := binary.AppendUvarint([]byte{1, kind}, n)
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...)
}

func sealJSON(v any) ([]byte, error) {
	payload, err := json.Marshal(v) // want `raw encoding/json \(Marshal\) on a fleet payload path: use the sealed binary frames`
	if err != nil {
		return nil, err
	}
	return append(payload, 0x5e), nil
}
