"""Auxiliary victim-side services: the mail host and the router web admin."""

from .cloud import dumps, loads

WEBGUI_PORT = 443           # the router's web admin
WEBGUI_SERVICE_TIME_US = 20_000


class MailService:
    """Minimal mail-like responder: every client line gets one 250 OK."""

    def __init__(self, service_time_us: int):
        self.service_time_us = service_time_us

    def on_data(self, stream, data: bytes):
        stream.reply_after(self.service_time_us, b"250 OK")


class WebGuiService:
    """Router web admin on WEBGUI_PORT: page fetches, credential login, and the
    graph-upload path that arms a shell foothold on a vulnerable host."""

    def __init__(self, sim, host, credentials: tuple, vulnerable: bool):
        self.sim = sim
        self.host = host
        self.credentials = credentials
        self.vulnerable = vulnerable
        self.footholds: set = set()       # attacker host ids with shell access
        self._authed_streams: set = set()

    def on_data(self, stream, data: bytes):
        try:
            request = loads(data.decode())
        except ValueError:
            request = {}
        action = request.get("action", "get")
        if action == "get":
            body = {"status": 200, "page": request.get("path", "/"),
                    "server": "webgui"}
        elif action == "login":
            if (request.get("user"), request.get("password")) == self.credentials:
                self._authed_streams.add(stream)
                body = {"status": 200, "auth": "ok"}
                self.sim.log_syslog(self.host,
                                    f"webgui: login {request.get('user')} "
                                    f"from {stream.peer_ip}")
            else:
                body = {"status": 401, "auth": "denied"}
                self.sim.log_syslog(self.host,
                                    f"webgui: failed login from {stream.peer_ip}")
        elif action == "inject":
            if stream in self._authed_streams and self.vulnerable:
                self.footholds.add(request.get("attacker", stream.peer_ip))
                body = {"status": 200, "upload": "ok"}
                self.sim.log_syslog(self.host,
                                    "webgui: graph payload uploaded from "
                                    f"{stream.peer_ip}")
            else:
                body = {"status": 403, "upload": "rejected"}
        else:
            body = {"status": 400}
        stream.reply_after(WEBGUI_SERVICE_TIME_US, dumps(body).encode())
