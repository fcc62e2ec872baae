package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

// FuzzAppendOrderJSON holds the reflection-free order encoder to
// json.Marshal byte for byte: every field fuzzed, the definition
// canonicalized as the order book stores it, and the same error for
// non-finite floats. It also holds the order book's read bodies, encoded
// from the stored orders, to json.Marshal of Get and of a tenant's List. The seed corpus in testdata/fuzz covers HTML-unsafe
// bytes, U+2028/U+2029, invalid UTF-8, -0, both sides of the 1e-6 and
// 1e21 exponent cutoffs, NaN and ±Inf.
func FuzzAppendOrderJSON(f *testing.F) {
	f.Add("ord-03-000001", "tenant-03", "photo-a", []byte(`{"shots": 2}`), "pending",
		31.5, 92.75, 0.25, "vfc://photo-a:5760", "ssh://photo-a:22", "vpn-ord-03-000001")
	f.Fuzz(func(t *testing.T, id, user, name string, def []byte, status string,
		ws, we, charge float64, vfc, ssh, vpn string) {
		canon, err := canonicalDefinition(def)
		switch {
		case err != nil && json.Valid(def):
			t.Fatalf("valid definition %q rejected: %v", def, err)
		case err != nil:
			if !errors.Is(err, ErrInvalidDefinition) {
				t.Fatalf("invalid definition %q: error %v is not ErrInvalidDefinition", def, err)
			}
		case len(def) > 0 && !json.Valid(def):
			t.Fatalf("invalid definition %q accepted as %q", def, canon)
		default:
			if again, err := canonicalDefinition(canon); err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("canonical form %q is not a fixed point: %q, %v", canon, again, err)
			}
		}
		o := Order{ID: id, User: user, Name: name, Definition: canon, Status: OrderStatus(status),
			WindowStartS: ws, WindowEndS: we, EstimatedCharge: charge,
			Access: AccessInfo{VFCAddr: vfc, SSHAddr: ssh, VPNKey: vpn}}

		const prefix = "prefix"
		got, gerr := appendOrderJSON([]byte(prefix), &o)
		want, werr := json.Marshal(&o)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("appendOrderJSON error %v, json.Marshal error %v", gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("error %q, json.Marshal's %q", gerr, werr)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendOrderJSON:\n %q\njson.Marshal:\n %q", got[len(prefix):], want)
		}
		list := []Order{o, o}
		gotList, _ := appendOrdersJSON(nil, []*Order{&o, &o})
		wantList, _ := json.Marshal(list)
		if !bytes.Equal(gotList, wantList) {
			t.Fatalf("appendOrdersJSON:\n %q\njson.Marshal:\n %q", gotList, wantList)
		}

		// The same order, twice in user's book beside another tenant's,
		// read back as the portal reads it.
		book := NewOrders()
		for _, u := range []string{user, "other-" + user, user} {
			ord, err := book.Create(u, name, def)
			if err != nil {
				if !errors.Is(err, ErrInvalidDefinition) {
					t.Fatal(err)
				}
				return
			}
			err = book.Update(ord.ID, func(x *Order) {
				x.Status, x.WindowStartS, x.WindowEndS, x.EstimatedCharge = o.Status, ws, we, charge
				x.Access = o.Access
			})
			if err != nil {
				t.Fatal(err)
			}
			gotOrder, gerr := book.orderJSON(ord.ID)
			stored, _ := book.Get(ord.ID)
			wantOrder, werr := json.Marshal(stored)
			if (gerr == nil) != (werr == nil) || (werr == nil && !bytes.Equal(gotOrder, append(wantOrder, '\n'))) {
				t.Fatalf("orderJSON(%s):\n %q, %v\njson.Marshal:\n %q, %v", ord.ID, gotOrder, gerr, wantOrder, werr)
			}
		}
		gotBook, gerr := book.listJSON(user)
		wantBook, werr := json.Marshal(book.List(user))
		if (gerr == nil) != (werr == nil) || (werr == nil && !bytes.Equal(gotBook, wantBook)) {
			t.Fatalf("listJSON(%q):\n %q, %v\njson.Marshal(List):\n %q, %v", user, gotBook, gerr, wantBook, werr)
		}
	})
}

func TestOrdersStoreCanonicalDefinitions(t *testing.T) {
	o := NewOrders()
	if _, err := o.Create("alice", "bad", json.RawMessage(`{"shots": `)); !errors.Is(err, ErrInvalidDefinition) {
		t.Fatalf("Create with a truncated definition: err = %v, want ErrInvalidDefinition", err)
	}
	if n := o.Count("alice"); n != 0 {
		t.Fatalf("a rejected order counts against the quota: %d", n)
	}
	ord, err := o.Create("alice", "ok", json.RawMessage("{ \"note\": \"<b>&\",\n  \"shots\": 2 }"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"note":"\u003cb\u003e\u0026","shots":2}`; string(ord.Definition) != want {
		t.Fatalf("stored definition %s, want %s", ord.Definition, want)
	}
	none, err := o.Create("alice", "none", nil)
	if err != nil || none.Definition != nil {
		t.Fatalf("Create with no definition: %v, %q", err, none.Definition)
	}

	if err := o.Update(ord.ID, func(x *Order) {
		x.Definition = json.RawMessage("[1, \n2]")
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get(ord.ID); string(got.Definition) != "[1,2]" {
		t.Fatalf("updated definition %s, want [1,2]", got.Definition)
	}
	err = o.Update(ord.ID, func(x *Order) {
		x.Definition = json.RawMessage("[1,")
		x.Status = OrderFlying
	})
	if !errors.Is(err, ErrInvalidDefinition) {
		t.Fatalf("Update to a truncated definition: err = %v, want ErrInvalidDefinition", err)
	}
	if got, _ := o.Get(ord.ID); string(got.Definition) != "[1,2]" || got.Status != OrderPending {
		t.Fatalf("a rejected Update committed: %+v", got)
	}
}

// TestPortalEncodeFailuresAnswer500 pins the encode-before-header rule: an
// order the encoder cannot render answers 500 with a JSON error, never
// 200 with an empty or truncated body, and never hides the tenant's book
// behind an empty listing.
func TestPortalEncodeFailuresAnswer500(t *testing.T) {
	p, srv := newTestPortal(t)
	good, err := p.Orders.Create("alice", "good", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := p.Orders.Create("alice", "bad", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		if err := p.Orders.Update(bad.ID, func(o *Order) { o.EstimatedCharge = v }); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/api/orders/" + bad.ID, "/api/orders?user=alice"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e map[string]string
			if resp.StatusCode != http.StatusInternalServerError ||
				resp.Header.Get("Content-Type") != "application/json" ||
				json.Unmarshal(body, &e) != nil || !strings.Contains(e["error"], "unsupported value") {
				t.Fatalf("charge %v, GET %s: %d %q %s", v, path, resp.StatusCode, resp.Header.Get("Content-Type"), body)
			}
		}
	}
	// The encodable order still reads, and the book reads again once the
	// bad one is repaired.
	resp, err := http.Get(srv.URL + "/api/orders/" + good.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET good order: %d", resp.StatusCode)
	}
	if err := p.Orders.Update(bad.ID, func(o *Order) { o.EstimatedCharge = 1 }); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/api/orders?user=alice")
	if err != nil {
		t.Fatal(err)
	}
	var list []Order
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || resp.StatusCode != http.StatusOK || len(list) != 2 {
		t.Fatalf("listing after repair: %d, %d orders, %v", resp.StatusCode, len(list), err)
	}
	resp.Body.Close()
}
