# Observability smoke: web_appliance's in-sim /metrics and /flows
# captures, and every HTTP flow in its Chrome trace spanning >=4 tracks.
# Reads the outputs tests/smoke/smoke.cmake leaves in the working
# directory; ctest runs both (test smoke_observability, label `gate`).
import collections, json, re

# The in-sim client must have fetched /metrics in Prometheus
# exposition format and /flows as JSON from the appliance.
out = open('appliance.out').read()
m = re.search(r'--- /metrics \(in-sim\) ---\n(.*?)--- end /metrics ---',
              out, re.S)
assert m, 'no in-sim /metrics capture'
assert '# TYPE' in m.group(1), 'not Prometheus exposition format'
assert re.search(r'flow_http_stage_\w+_ns_count [1-9]', m.group(1)), \
    'flow stage histograms must be non-zero'
f = re.search(r'--- /flows \(in-sim\) ---\n(.*?)--- end /flows ---',
              out, re.S)
assert f, 'no in-sim /flows capture'
assert json.loads(f.group(1)), '/flows must list completed flows'

# Every HTTP request must appear as one async flow spanning
# at least 4 tracks (guest http/tcp, netfront, netback, ...).
d = json.load(open('out.json'))
tracks = {e['tid']: e['args']['name'] for e in d['traceEvents']
          if e.get('ph') == 'M' and e.get('name') == 'thread_name'}
flows = collections.defaultdict(set)
for e in d['traceEvents']:
    if e.get('ph') in 'ben' and e.get('cat') == 'flow':
        flows[e['id']].add(tracks.get(e['tid']))
http = [t for t in flows.values() if any('http' in (n or '') for n in t)]
assert http, 'no http flows traced'
assert all(len(t) >= 4 for t in http), \
    f'http flows must span >=4 tracks: {http}'
print(f'{len(http)} http flows, tracks per flow:',
      sorted(len(t) for t in http))
