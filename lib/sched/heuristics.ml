let by_name = Policy.by_name
let run ?mode p inst = Engine.run ?mode p inst
