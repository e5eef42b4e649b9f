"""The echo yardstick's server (see ``common.EchoYardstick``).

    python3 perfbench/echo.py

Prints its loopback port, then answers every POST with 200 after one
small fixed ``Yardstick`` tick.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from common import Yardstick

WORK = Yardstick(rows=2500)


class Echo(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        WORK.tick()
        WORK.times.clear()
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"ok")

    def log_message(self, format: str, *args: object) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
