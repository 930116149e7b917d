package main

import "testing"

func TestSummaryURL(t *testing.T) {
	for _, c := range []struct{ addr, want string }{
		{":8085", "http://localhost:8085/api/v1/monitor/summary"},
		{"127.0.0.1:18185", "http://127.0.0.1:18185/api/v1/monitor/summary"},
		{"gelee.example.org:80", "http://gelee.example.org:80/api/v1/monitor/summary"},
		{"[::1]:9000", "http://[::1]:9000/api/v1/monitor/summary"},
	} {
		if got := summaryURL(c.addr); got != c.want {
			t.Errorf("summaryURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}
