include Fsa_json.Json
