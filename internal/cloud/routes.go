package cloud

import (
	"fmt"
	"net/http"
	"net/url"
	"path"
	"slices"
	"sort"
	"strings"

	"androne/internal/telemetry"
)

// PathValues are a routed request's wildcard values, in the order their
// wildcards appear in the route's pattern.
type PathValues [2]string

// Route is one row of a route table.
type Route struct {
	// Method is the request method the row serves; a GET row also serves
	// HEAD. A row without a method serves every method: list it after the
	// rows with one on its path, since rows are tried in order.
	Method string
	// Pattern is the row's path: literal segments, then wildcards that
	// match one segment ({name}) or the rest of the path ({name...}), at
	// most two in all. Rows of one method must not match a common path.
	Pattern string
	// Endpoint names the admission latency histogram the row's requests
	// are timed in. A row without an endpoint is an ops route, served
	// before admission: it still answers while the service sheds.
	Endpoint string
	// Serve answers the request, given the pattern's wildcard values.
	Serve func(w http.ResponseWriter, r *http.Request, v PathValues)
}

// Routes is a route table. It answers as http.ServeMux does for the same
// patterns registered on an outer mux (the ops rows beside a catch-all)
// and, behind admission, an inner mux (the rest): the same 301 for an
// unclean path, 405 with Allow, 404, and the same wildcard values. But it
// matches a request once, by plain method and segment compares, and the
// matched row names the admission histogram. Unlike a mux, a table never
// redirects /p to /p/ because a {name...} row matches /p/ alone; give such
// a row a sibling for /p, as the portal's file routes have.
type Routes struct {
	adm  *Admission
	rows []row
}

// row is a Route with its pattern split into segments.
type row struct {
	Route
	segs []string
	lat  *telemetry.Histogram
}

// NewRoutes builds a table over routes. adm may be nil: every row is then
// served without admission control.
func NewRoutes(adm *Admission, routes ...Route) *Routes {
	t := &Routes{adm: adm}
	for _, rt := range routes {
		segs := strings.Split(strings.TrimPrefix(rt.Pattern, "/"), "/")
		if !strings.HasPrefix(rt.Pattern, "/") || slices.Contains(segs, "") ||
			strings.Count(rt.Pattern, "{") > len(PathValues{}) {
			panic(fmt.Sprintf("cloud: bad route pattern %q", rt.Pattern))
		}
		t.rows = append(t.rows, row{Route: rt, segs: segs, lat: mEndpointLatency[rt.Endpoint]})
	}
	return t
}

// match reports whether path matches the row's pattern, and the
// wildcard values, unescaped segment by segment as a mux unescapes them.
func (rw *row) match(path string) (v PathValues, ok bool) {
	n := 0
	for _, s := range rw.segs {
		if path == "" {
			return v, false
		}
		if strings.HasSuffix(s, "...}") {
			v[n] = pathUnescape(path[1:])
			return v, true
		}
		var seg string
		seg, path = firstSegment(path)
		switch {
		case s[0] != '{':
			if seg != s {
				return v, false
			}
		case seg == "/":
			// A trailing slash (or an escaped one) is no segment value.
			return v, false
		default:
			v[n] = seg
			n++
		}
	}
	return v, path == ""
}

// firstSegment splits the first segment, unescaped, from path, which
// starts with a slash. A lone trailing slash is the segment "/".
func firstSegment(path string) (seg, rest string) {
	if path == "/" {
		return "/", ""
	}
	path = path[1:]
	i := strings.IndexByte(path, '/')
	if i < 0 {
		i = len(path)
	}
	return pathUnescape(path[:i]), path[i:]
}

// pathUnescape unescapes p as a mux does: an invalid escape leaves p as
// it is.
func pathUnescape(p string) string {
	if u, err := url.PathUnescape(p); err == nil {
		return u
	}
	return p
}

// cleanPath is the path a mux redirects an unclean request path to:
// rooted, path.Clean'd, its trailing slash kept. A clean path comes back
// as it is, without allocating.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && strings.HasPrefix(p, np) {
			return p
		}
		np += "/"
	}
	return np
}

// lookup returns the first row serving method on path, and its wildcard
// values.
func (t *Routes) lookup(method, path string) (*row, PathValues) {
	for i := range t.rows {
		rw := &t.rows[i]
		if rw.Method != "" && rw.Method != method && (rw.Method != http.MethodGet || method != http.MethodHead) {
			continue
		}
		if v, ok := rw.match(path); ok {
			return rw, v
		}
	}
	return nil, PathValues{}
}

// ServeHTTP implements http.Handler.
func (t *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	p := r.URL.EscapedPath()
	if clean := cleanPath(p); r.Method != http.MethodConnect && clean != p {
		u := &url.URL{Path: clean, RawQuery: r.URL.RawQuery}
		http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
		return
	}
	if p == "" {
		// An authority-form CONNECT names no path. Alone, a table answers
		// 404 as a mux of its rows did; behind admission it answers as the
		// outer mux did, whose catch-all "/" asked for the trailing slash.
		if t.adm == nil {
			http.NotFound(w, r)
			return
		}
		u := &url.URL{Path: cleanPath(r.URL.Path) + "/", RawQuery: r.URL.RawQuery}
		http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
		return
	}
	rw, v := t.lookup(r.Method, p)
	if t.adm == nil || (rw != nil && rw.Endpoint == "") {
		t.serve(w, r, rw, v, p)
		return
	}
	var lat *telemetry.Histogram
	if rw != nil {
		lat = rw.lat
	} else {
		lat = mEndpointLatency[endpointOf(r)]
	}
	start, ok := t.adm.admit(w, r)
	if !ok {
		return
	}
	t.serve(w, r, rw, v, p)
	t.adm.done(lat, start)
}

// serve answers with rw, or when no row matched, 405 with the methods
// the path's rows serve, else 404.
func (t *Routes) serve(w http.ResponseWriter, r *http.Request, rw *row, v PathValues, p string) {
	if rw != nil {
		rw.Serve(w, r, v)
		return
	}
	if allow := t.allowed(p); len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	http.NotFound(w, r)
}

// allowed lists, sorted, the methods of the rows behind admission that
// match p or p with a trailing slash, HEAD beside GET.
func (t *Routes) allowed(p string) []string {
	var methods []string
	add := func(m string) {
		if !slices.Contains(methods, m) {
			methods = append(methods, m)
		}
	}
	for i := range t.rows {
		rw := &t.rows[i]
		if rw.Method == "" || (t.adm != nil && rw.Endpoint == "") {
			continue
		}
		_, ok := rw.match(p)
		if !ok && !strings.HasSuffix(p, "/") {
			_, ok = rw.match(p + "/")
		}
		if ok {
			add(rw.Method)
			if rw.Method == http.MethodGet {
				add(http.MethodHead)
			}
		}
	}
	sort.Strings(methods)
	return methods
}
