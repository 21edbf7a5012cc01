"""Test ids name what a test checks, never a recorded digest: a byte pin
passes its sha256 as a parameter under an explicit id, so re-recording the
digest keeps the test's name."""

import re

HEX_RUN = re.compile(r"[0-9a-fA-F]{64}")


def test_no_collected_id_holds_a_digest(request):
    assert [item.nodeid for item in request.session.items
            if HEX_RUN.search(item.nodeid)] == []
