"""Tests for the NIDS subsystem: rule AST, parser, matcher, ruleset, engine."""

from datetime import timedelta

import pytest

from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine
from repro.nids.matcher import SessionBuffers, match_rule
from repro.nids.parser import RuleParseError, parse_rule, parse_rules
from repro.nids.rule import ContentMatch, HttpBuffer, PcreMatch, PortSpec, Rule
from repro.nids.ruleset import Ruleset
from repro.util.timeutil import utc

T0 = utc(2022, 1, 1)


def _session(payload, *, port=80, sid=1, when=T0):
    return TcpSession(
        session_id=sid, start=when, src_ip=1, src_port=40000,
        dst_ip=2, dst_port=port, payload=payload,
    )


def _http(uri="/", method="GET", headers="", body=b""):
    head = f"{method} {uri} HTTP/1.1\r\nHost: h\r\n{headers}"
    return head.encode() + b"\r\n\r\n" + body


class TestPortSpec:
    def test_any(self):
        assert PortSpec.parse("any").matches(12345)

    def test_single(self):
        spec = PortSpec.parse("80")
        assert spec.matches(80)
        assert not spec.matches(81)

    def test_list(self):
        spec = PortSpec.parse("[80,8080,8443]")
        assert spec.matches(8080)
        assert not spec.matches(443)

    def test_range(self):
        spec = PortSpec.parse("8000:8100")
        assert spec.matches(8000)
        assert spec.matches(8100)
        assert not spec.matches(8101)

    def test_open_range(self):
        assert PortSpec.parse("1024:").matches(65535)
        assert PortSpec.parse(":1023").matches(0)

    def test_negation(self):
        spec = PortSpec.parse("![80,443]")
        assert spec.matches(8080)
        assert not spec.matches(443)

    @pytest.mark.parametrize("bad", ["", "!any", "9000:8000", "[]"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            PortSpec.parse(bad)


class TestRuleAst:
    def test_content_validation(self):
        with pytest.raises(ValueError):
            ContentMatch(pattern=b"")
        with pytest.raises(ValueError):
            ContentMatch(pattern=b"abcd", depth=2)

    def test_cve_ids_normalised(self):
        rule = Rule(
            action="alert", protocol="tcp", src="any",
            src_ports=PortSpec.parse("any"), dst="any",
            dst_ports=PortSpec.parse("any"), msg="m", sid=1,
            references=(("cve", "2021-44228"), ("url", "example.com")),
        )
        assert rule.cve_ids == ("CVE-2021-44228",)

    def test_fast_pattern_prefers_explicit(self):
        options = (
            ContentMatch(pattern=b"longer-pattern"),
            ContentMatch(pattern=b"short", fast_pattern=True),
        )
        rule = Rule(
            action="alert", protocol="tcp", src="any",
            src_ports=PortSpec.parse("any"), dst="any",
            dst_ports=PortSpec.parse("any"), msg="m", sid=1, options=options,
        )
        assert rule.fast_pattern.pattern == b"short"

    def test_fast_pattern_longest_positive(self):
        options = (
            ContentMatch(pattern=b"aa"),
            ContentMatch(pattern=b"bbbb"),
            ContentMatch(pattern=b"cccccc", negated=True),
        )
        rule = Rule(
            action="alert", protocol="tcp", src="any",
            src_ports=PortSpec.parse("any"), dst="any",
            dst_ports=PortSpec.parse("any"), msg="m", sid=1, options=options,
        )
        assert rule.fast_pattern.pattern == b"bbbb"

    def test_port_insensitive_rewrite(self):
        rule = parse_rule(
            'alert tcp any any -> any 80 (msg:"m"; content:"x"; sid:5;)'
        )
        rewritten = rule.port_insensitive()
        assert rewritten.dst_ports.matches(9999)
        assert not rule.dst_ports.matches(9999)


class TestParser:
    def test_full_rule(self):
        text = (
            'alert tcp $EXTERNAL_NET any -> $HOME_NET [80,8080] ('
            'msg:"SERVER-OTHER test rule"; flow:to_server,established; '
            'content:"${jndi:"; nocase; http_header; fast_pattern; '
            'content:!"benign"; '
            'pcre:"/ldap:\\/\\//iH"; '
            'reference:cve,2021-44228; classtype:attempted-admin; '
            'sid:58722; rev:3; metadata:policy balanced-ips drop;)'
        )
        rule = parse_rule(text)
        assert rule.sid == 58722
        assert rule.rev == 3
        assert rule.msg == "SERVER-OTHER test rule"
        assert rule.flow_to_server
        assert rule.cve_ids == ("CVE-2021-44228",)
        content = rule.options[0]
        assert content.pattern == b"${jndi:"
        assert content.nocase and content.fast_pattern
        assert content.buffer is HttpBuffer.HTTP_HEADER
        negated = rule.options[1]
        assert negated.negated
        pcre = rule.options[2]
        assert pcre.buffer is HttpBuffer.HTTP_HEADER
        assert rule.dst_ports.matches(8080)

    def test_hex_escapes(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; content:"ab|00 FF|cd"; sid:1;)'
        )
        assert rule.options[0].pattern == b"ab\x00\xffcd"

    def test_escaped_specials(self):
        rule = parse_rule(
            r'alert tcp any any -> any any (msg:"m"; content:"a\;b\"c"; sid:1;)'
        )
        assert rule.options[0].pattern == b'a;b"c'

    def test_offset_depth_distance_within(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; '
            'content:"abc"; offset:2; depth:10; '
            'content:"def"; distance:1; within:20; sid:1;)'
        )
        first, second = rule.options
        assert (first.offset, first.depth) == (2, 10)
        assert (second.distance, second.within) == (1, 20)
        assert second.is_relative

    def test_modifier_without_content_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any any (msg:"m"; nocase; sid:1;)')

    def test_missing_sid_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any any (msg:"m"; content:"x";)')

    def test_bad_header_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("alert tcp nonsense (sid:1;)")

    def test_semicolon_inside_quotes(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"has; semicolon"; content:"x"; sid:1;)'
        )
        assert rule.msg == "has; semicolon"

    def test_parse_rules_skips_comments(self):
        rules = parse_rules([
            "# comment",
            "",
            'alert tcp any any -> any any (msg:"m"; content:"x"; sid:1;)',
        ])
        assert len(rules) == 1

    def test_unsupported_pcre_flag_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any any (msg:"m"; pcre:"/x/Z"; sid:1;)')

    # -- regressions surfaced by the scaled-ruleset generator ----------------

    def test_bracketed_ports_with_spaces(self):
        # Valid Snort; the pre-fix header regex split `[80, 8080]` at the
        # space and misparsed the whole header.
        rule = parse_rule(
            'alert tcp $EXTERNAL_NET any -> $HOME_NET [80, 8080] '
            '(msg:"m"; content:"xyzzy"; sid:1;)'
        )
        assert rule.dst_ports.matches(80)
        assert rule.dst_ports.matches(8080)
        assert not rule.dst_ports.matches(81)
        # The negated list: the header regex once took only a bare token
        # after `!`, so `![80, 8080]` split at the space too.
        negated = parse_rule(
            'alert tcp $EXTERNAL_NET any -> $HOME_NET ![80, 8080] '
            '(msg:"m"; content:"xyzzy"; sid:1;)'
        )
        assert not negated.dst_ports.matches(8080)
        assert negated.dst_ports.matches(81)
        assert negated.dst_ports.text == "![80, 8080]"

    def test_non_latin1_content_is_parse_error(self):
        # Pre-fix: a bare ValueError out of bytearray.append, no rule context.
        with pytest.raises(RuleParseError, match="non-latin-1"):
            parse_rule('alert tcp any any -> any any (msg:"m"; content:"sn☃wman"; sid:1;)')

    def test_latin1_content_decodes(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; content:"café"; sid:1;)'
        )
        assert rule.options[0].pattern == b"caf\xe9"

    @pytest.mark.parametrize(
        "option", ["offset:abc", "depth:1.5", "within:x", "sid:notanint"]
    )
    def test_malformed_int_option_is_parse_error(self, option):
        # Pre-fix: int() raised a bare ValueError mid-parse.
        name = option.split(":")[0]
        sid = "" if name == "sid" else " sid:1;"
        with pytest.raises(RuleParseError, match=name):
            parse_rule(
                f'alert tcp any any -> any any (msg:"m"; content:"abcd"; '
                f"{option};{sid})"
            )

    @pytest.mark.parametrize("pcre", ["/a(b/", "/x{99999999999}/i", "/(?P<g>a)(?P<g>b)/"])
    def test_uncompilable_pcre_is_parse_error(self, pcre):
        # Pre-fix: parsed fine, and the first scan raised a bare re.error
        # naming no rule.
        with pytest.raises(RuleParseError, match=r"bad pcre option .*\(rule: "):
            parse_rule(
                f'alert tcp any any -> any any (msg:"m"; pcre:"{pcre}"; sid:1;)'
            )

    def test_parse_error_carries_rule_text(self):
        with pytest.raises(RuleParseError, match=r"\(rule: "):
            parse_rule('alert tcp any any -> any any (msg:"m"; offset:zz; sid:1;)')

    def test_msg_strips_exactly_one_quote_pair(self):
        # Pre-fix ``.strip('"')`` ate *all* leading/trailing quotes,
        # mangling doubled-quote messages.
        rule = parse_rule(
            'alert tcp any any -> any any (msg:""quoted""; content:"x"; sid:1;)'
        )
        assert rule.msg == '"quoted"'


class TestMatcher:
    def _rule(self, *options, ports="any"):
        return Rule(
            action="alert", protocol="tcp", src="any",
            src_ports=PortSpec.parse("any"), dst="any",
            dst_ports=PortSpec.parse(ports), msg="m", sid=1,
            options=tuple(options),
        )

    def test_raw_content(self):
        rule = self._rule(ContentMatch(pattern=b"EVAL"))
        assert match_rule(rule, _session(b"*3\r\nEVAL\r\n"))
        assert not match_rule(rule, _session(b"nothing"))

    def test_nocase(self):
        rule = self._rule(ContentMatch(pattern=b"JNDI", nocase=True))
        assert match_rule(rule, _session(b"${jndi:ldap}"))

    def test_http_uri_buffer(self):
        rule = self._rule(
            ContentMatch(pattern=b"/admin", buffer=HttpBuffer.HTTP_URI)
        )
        assert match_rule(rule, _session(_http(uri="/admin/panel")))
        # Same bytes in the body must NOT match the URI buffer.
        assert not match_rule(
            rule, _session(_http(uri="/", method="POST", body=b"/admin"))
        )

    def test_http_header_excludes_cookie(self):
        rule = self._rule(
            ContentMatch(pattern=b"${jndi:", buffer=HttpBuffer.HTTP_HEADER)
        )
        cookie_payload = _http(headers="Cookie: s=${jndi:ldap}\r\n")
        header_payload = _http(headers="X-V: ${jndi:ldap}\r\n")
        assert not match_rule(rule, _session(cookie_payload))
        assert match_rule(rule, _session(header_payload))

    def test_http_cookie_buffer(self):
        rule = self._rule(
            ContentMatch(pattern=b"${jndi:", buffer=HttpBuffer.HTTP_COOKIE)
        )
        assert match_rule(rule, _session(_http(headers="Cookie: s=${jndi:x}\r\n")))

    def test_http_method_buffer(self):
        rule = self._rule(
            ContentMatch(pattern=b"${jndi", buffer=HttpBuffer.HTTP_METHOD)
        )
        assert match_rule(rule, _session(_http(method="${jndi:ldap://x/a}")))

    def test_http_buffer_on_non_http_fails(self):
        rule = self._rule(
            ContentMatch(pattern=b"x", buffer=HttpBuffer.HTTP_URI)
        )
        assert not match_rule(rule, _session(b"\x00\x01binary"))

    def test_negated_on_non_http_buffer_holds(self):
        rule = self._rule(
            ContentMatch(pattern=b"raw"),
            ContentMatch(pattern=b"x", buffer=HttpBuffer.HTTP_URI, negated=True),
        )
        assert match_rule(rule, _session(b"raw bytes"))

    def test_depth_and_offset(self):
        rule = self._rule(ContentMatch(pattern=b"abc", offset=2, depth=5))
        assert match_rule(rule, _session(b"xxabcyy"))
        assert not match_rule(rule, _session(b"abcxxxx"))  # before offset

    def test_distance_within_relative(self):
        rule = self._rule(
            ContentMatch(pattern=b"AB"),
            ContentMatch(pattern=b"CD", distance=2, within=4),
        )
        assert match_rule(rule, _session(b"AB..CD"))
        assert not match_rule(rule, _session(b"ABCD"))  # distance not met
        assert not match_rule(rule, _session(b"AB......CD"))  # outside within

    def test_pcre(self):
        rule = self._rule(PcreMatch(pattern=r"passwd|shadow"))
        assert match_rule(rule, _session(b"GET /etc/passwd"))

    def test_negated_pcre(self):
        rule = self._rule(
            ContentMatch(pattern=b"GET"),
            PcreMatch(pattern=r"benign", negated=True),
        )
        assert match_rule(rule, _session(b"GET /x"))
        assert not match_rule(rule, _session(b"GET /benign"))

    def test_port_check(self):
        rule = self._rule(ContentMatch(pattern=b"x"), ports="443")
        assert not match_rule(rule, _session(b"x", port=80))
        assert match_rule(rule, _session(b"x", port=80), check_ports=False)

    def test_empty_payload_never_matches(self):
        rule = self._rule(ContentMatch(pattern=b"x"))
        assert not match_rule(rule, _session(b""))


class TestRuleset:
    def _make(self):
        ruleset = Ruleset()
        early = parse_rule(
            'alert tcp any any -> any 80 (msg:"early"; content:"TOKEN"; '
            "reference:cve,2021-0001; sid:100;)"
        )
        late = parse_rule(
            'alert tcp any any -> any 80 (msg:"late"; content:"TOKEN"; '
            "reference:cve,2021-0002; sid:200;)"
        )
        ruleset.add(late, utc(2022, 6, 1))
        ruleset.add(early, utc(2021, 6, 1))
        return ruleset

    def test_earliest_published_retained(self):
        ruleset = self._make()
        alert = ruleset.match_session(_session(b"...TOKEN..."))
        assert alert.sid == 100
        assert alert.cve_id == "CVE-2021-0001"

    def test_match_all_returns_both(self):
        ruleset = self._make()
        alerts = ruleset.match_all(_session(b"TOKEN"))
        assert {a.sid for a in alerts} == {100, 200}

    def test_port_insensitive_by_default(self):
        ruleset = self._make()
        assert ruleset.match_session(_session(b"TOKEN", port=9999)) is not None

    def test_port_sensitive_mode(self):
        ruleset = Ruleset(port_insensitive=False)
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any 80 (msg:"m"; content:"TOKEN"; sid:1;)'
            ),
            utc(2021, 6, 1),
        )
        assert ruleset.match_session(_session(b"TOKEN", port=9999)) is None
        assert ruleset.match_session(_session(b"TOKEN", port=80)) is not None

    def test_duplicate_sid_rejected(self):
        ruleset = self._make()
        with pytest.raises(ValueError):
            ruleset.add(
                parse_rule(
                    'alert tcp any any -> any any (msg:"m"; content:"y"; sid:100;)'
                ),
                utc(2021, 1, 1),
            )

    def test_pre_publication_flag(self):
        ruleset = self._make()
        before = ruleset.match_session(_session(b"TOKEN", when=utc(2021, 1, 1)))
        after = ruleset.match_session(_session(b"TOKEN", when=utc(2023, 1, 1)))
        assert before.pre_publication
        assert not after.pre_publication

    def test_published_at_and_rule_for_sid(self):
        ruleset = self._make()
        assert ruleset.published_at(100) == utc(2021, 6, 1)
        assert ruleset.rule_for_sid(200).msg == "late"
        with pytest.raises(KeyError):
            ruleset.published_at(999)


class TestDetectionEngine:
    def test_stats(self):
        ruleset = Ruleset()
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any (msg:"m"; content:"EVIL"; '
                "reference:cve,2021-0009; sid:1;)"
            ),
            utc(2022, 1, 1),
        )
        engine = DetectionEngine(ruleset)
        sessions = [
            _session(b"EVIL payload", sid=1, when=utc(2021, 6, 1)),
            _session(b"benign", sid=2),
            _session(b"EVIL again", sid=3, when=utc(2022, 6, 1)),
        ]
        alerts = engine.scan(sessions)
        assert len(alerts) == 2
        assert engine.stats.sessions_scanned == 3
        assert engine.stats.sessions_alerted == 2
        assert engine.stats.pre_publication_alerts == 1
        assert engine.stats.alerts_by_sid == {1: 2}
        assert engine.stats.alert_rate == pytest.approx(2 / 3)


class TestSizeAndDataOptions:
    def test_dsize_parsing_and_matching(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; dsize:>10; '
            'content:"AB"; sid:1;)'
        )
        assert match_rule(rule, _session(b"AB" + b"x" * 20))
        assert not match_rule(rule, _session(b"ABx"))

    def test_dsize_exact_and_range(self):
        exact = parse_rule(
            'alert tcp any any -> any any (msg:"m"; dsize:5; content:"A"; sid:1;)'
        )
        assert match_rule(exact, _session(b"Axxxx"))
        assert not match_rule(exact, _session(b"Axxx"))
        ranged = parse_rule(
            'alert tcp any any -> any any (msg:"m"; dsize:3<>8; content:"A"; sid:2;)'
        )
        assert match_rule(ranged, _session(b"Axxxx"))
        assert not match_rule(ranged, _session(b"Axx"))

    def test_urilen(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; urilen:>20; '
            'content:"/x"; http_uri; sid:1;)'
        )
        long_uri = _http(uri="/x" + "a" * 30)
        short_uri = _http(uri="/x")
        assert match_rule(rule, _session(long_uri))
        assert not match_rule(rule, _session(short_uri))
        # urilen on non-HTTP payload cannot match.
        assert not match_rule(rule, _session(b"\x00\x01"))

    def test_isdataat_relative(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; content:"HEAD"; '
            "isdataat:10,relative; sid:1;)"
        )
        assert match_rule(rule, _session(b"HEAD" + b"y" * 11))
        assert not match_rule(rule, _session(b"HEAD" + b"y" * 5))

    def test_isdataat_negated(self):
        # "no data beyond offset 4": payload must be exactly the content.
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"m"; content:"PING"; '
            "isdataat:!0,relative; sid:1;)"
        )
        assert match_rule(rule, _session(b"PING"))
        assert not match_rule(rule, _session(b"PING-extra"))

    def test_size_bound_validation(self):
        from repro.nids.rule import SizeBound

        with pytest.raises(ValueError):
            SizeBound(kind="bogus", exact=1)
        with pytest.raises(ValueError):
            SizeBound(kind="dsize")


class TestRuleRevisions:
    def _base(self):
        ruleset = Ruleset()
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any (msg:"v1"; content:"/api/"; '
                "reference:cve,2021-0001; sid:500; rev:1;)"
            ),
            utc(2021, 6, 1),
        )
        return ruleset

    def test_revision_replaces_logic_keeps_publication(self):
        ruleset = self._base()
        revised = ruleset.update(
            parse_rule(
                'alert tcp any any -> any any (msg:"v2"; '
                'content:"/api/exploit${"; reference:cve,2021-0001; '
                "sid:500; rev:2;)"
            ),
            utc(2022, 1, 1),
        )
        assert revised is True
        # Original publication date preserved (the defense existed since v1).
        assert ruleset.published_at(500) == utc(2021, 6, 1)
        # Old traffic shape no longer matches; the tightened one does.
        assert ruleset.match_session(_session(b"GET /api/users HTTP/1.1\r\n\r\n")) is None
        assert ruleset.match_session(
            _session(b"GET /api/exploit${jndi} HTTP/1.1\r\n\r\n")
        ) is not None

    def test_stale_revision_rejected(self):
        ruleset = self._base()
        with pytest.raises(ValueError):
            ruleset.update(
                parse_rule(
                    'alert tcp any any -> any any (msg:"old"; content:"x"; '
                    "sid:500; rev:1;)"
                ),
                utc(2022, 1, 1),
            )

    def test_unknown_sid_added_as_new(self):
        ruleset = self._base()
        revised = ruleset.update(
            parse_rule(
                'alert tcp any any -> any any (msg:"new"; content:"fresh"; '
                "sid:501; rev:1;)"
            ),
            utc(2022, 3, 1),
        )
        assert revised is False
        assert ruleset.published_at(501) == utc(2022, 3, 1)

    def test_prefilter_recompiled_after_revision(self):
        ruleset = self._base()
        # Force a compile, then revise and ensure matching follows the
        # new fast pattern.
        assert ruleset.match_session(_session(b"GET /api/x HTTP/1.1\r\n\r\n"))
        ruleset.update(
            parse_rule(
                'alert tcp any any -> any any (msg:"v2"; content:"ZZTOKEN"; '
                "reference:cve,2021-0001; sid:500; rev:3;)"
            ),
            utc(2022, 1, 1),
        )
        assert ruleset.match_session(_session(b"ZZTOKEN")) is not None
        assert ruleset.match_session(_session(b"GET /api/x HTTP/1.1\r\n\r\n")) is None
