package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// DefinitionValidator checks a virtual drone definition; the portal rejects
// orders whose definitions do not validate. Package core supplies the real
// validator, keeping the cloud service decoupled from the definition schema.
type DefinitionValidator func(def []byte) error

// EstimateFunc previews the billing charge and operating window for a
// definition (energy allotment and waypoints).
type EstimateFunc func(def []byte) (charge float64, windowStartS, windowEndS float64, err error)

// Portal is the AnDrone web portal: the HTTP front door for ordering and
// configuring virtual drones, browsing the app store, and retrieving flight
// files from cloud storage.
type Portal struct {
	Apps     *AppStore
	Files    *Storage
	Repo     *VDR
	Orders   *Orders
	Validate DefinitionValidator
	Estimate EstimateFunc

	routes *Routes
}

// NewPortal assembles the portal over the cloud components. validate may be
// nil (all definitions accepted); estimate may be nil (no previews).
func NewPortal(apps *AppStore, files *Storage, repo *VDR, orders *Orders,
	validate DefinitionValidator, estimate EstimateFunc) *Portal {
	p := &Portal{Apps: apps, Files: files, Repo: repo, Orders: orders,
		Validate: validate, Estimate: estimate}
	p.routes = NewRoutes(nil, p.Routes()...)
	return p
}

// Routes returns the portal's rows of a route table. ServeHTTP serves them
// alone; a service serves them beside its operator routes, behind its
// admission control.
func (p *Portal) Routes() []Route {
	return []Route{
		{"GET", "/api/apps", "apps", p.listApps},
		{"GET", "/api/apps/{pkg}", "apps", p.getApp},
		{"POST", "/api/apps", "apps", p.publishApp},
		{"POST", "/api/orders", "orders", p.createOrder},
		{"GET", "/api/orders", "orders", p.listOrders},
		{"GET", "/api/orders/{id}", "order", p.getOrder},
		{"GET", "/api/files/{user}", "files", p.listFiles},
		{"GET", "/api/files/{user}/{path...}", "files", p.getFile},
		{"GET", "/api/vdr", "vdr", p.listVDR},
	}
}

// ServeHTTP implements http.Handler.
func (p *Portal) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.routes.ServeHTTP(w, r) }

// WriteJSON answers with status and v encoded as encoding/json's Encoder
// writes it (trailing newline included). v is encoded before the header
// goes out, so a value that cannot be encoded answers 500 with a JSON
// error rather than status and a truncated body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// jsonContentType is every JSON answer's Content-Type value. Answers
// share it rather than allocate one each; a header's values are replaced
// or appended to, never written in place.
var jsonContentType = []string{"application/json"}

// writeBody answers with status and an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeEncodeError answers 500 for a response body that failed to encode.
func writeEncodeError(w http.ResponseWriter, err error) {
	WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrQuotaExceeded):
		status = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// writeOrder answers with status and order id, encoded as WriteJSON
// would. An order that cannot be encoded answers 500, as writeError
// answers any error that is not a known kind.
func (p *Portal) writeOrder(w http.ResponseWriter, status int, id string) {
	body, err := p.Orders.orderJSON(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, body)
}

func (p *Portal) listApps(w http.ResponseWriter, r *http.Request, _ PathValues) {
	body, err := p.Apps.ListingJSON()
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (p *Portal) getApp(w http.ResponseWriter, r *http.Request, v PathValues) {
	app, err := p.Apps.Get(v[0])
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, app)
}

func (p *Portal) publishApp(w http.ResponseWriter, r *http.Request, _ PathValues) {
	var app StoreApp
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&app); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := p.Apps.Publish(app); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	WriteJSON(w, http.StatusCreated, map[string]string{"package": app.Package})
}

// orderRequest is the POST /api/orders body.
type orderRequest struct {
	User       string          `json:"user"`
	Name       string          `json:"name"`
	Definition json.RawMessage `json:"definition"`
}

func (p *Portal) createOrder(w http.ResponseWriter, r *http.Request, _ PathValues) {
	var req orderRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.User == "" || len(req.Definition) == 0 {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "user and definition required"})
		return
	}
	if p.Validate != nil {
		if err := p.Validate(req.Definition); err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
	}
	name := SanitizeName(req.Name)
	if req.Name == "" {
		name = ""
	}
	ord, err := p.Orders.Create(req.User, name, req.Definition)
	if err != nil {
		writeError(w, err)
		return
	}
	if p.Estimate != nil {
		if charge, ws, we, err := p.Estimate(req.Definition); err == nil {
			_ = p.Orders.Update(ord.ID, func(o *Order) {
				o.EstimatedCharge = charge
				o.WindowStartS, o.WindowEndS = ws, we
			})
		}
	}
	p.writeOrder(w, http.StatusCreated, ord.ID)
}

func (p *Portal) listOrders(w http.ResponseWriter, r *http.Request, _ PathValues) {
	body, err := p.Orders.listJSON(queryValue(r.URL.RawQuery, "user"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (p *Portal) getOrder(w http.ResponseWriter, r *http.Request, v PathValues) {
	p.writeOrder(w, http.StatusOK, v[0])
}

func (p *Portal) listFiles(w http.ResponseWriter, r *http.Request, v PathValues) {
	WriteJSON(w, http.StatusOK, p.Files.List(v[0]))
}

func (p *Portal) getFile(w http.ResponseWriter, r *http.Request, v PathValues) {
	user, path := v[0], v[1]
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	data, err := p.Files.Get(user, path)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}

func (p *Portal) listVDR(w http.ResponseWriter, r *http.Request, _ PathValues) {
	// Manifests are the layer-level view: a few hundred bytes per entry,
	// no checkpoint reassembly, no payload bytes leaked into listings.
	body, err := p.Repo.ManifestsJSON()
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}
